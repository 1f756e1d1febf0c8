// transport.hpp — pluggable message delivery for the MPC round barrier.
//
// Definition 2.1 says nothing about *how* the s-bit messages move between
// rounds, only that machine i's round-(k+1) memory is exactly the union of
// messages addressed to it in round k. MpcSimulation therefore routes every
// delivery through this interface, and the two backends differ only in how
// bytes travel:
//
//   * InProcessTransport — messages move by std::move; zero-copy. The
//     behaviour the tree has always had, and the serial reference every
//     other backend is conformance-tested against.
//   * SocketTransport    — machines are partitioned into shard groups,
//     one forked router OS process per group; every message travels as one
//     frame over AF_UNIX stream sockets, through at most one router-to-router
//     hop.
//
// The contract that makes backends interchangeable is *barrier quiescence*
// and *canonical order*:
//   - send() is called once per machine, in machine index order, on the
//     barrier thread, with the machine's validated and metered outbox;
//   - flush() then moves every byte of the round; after it returns, nothing
//     is in flight (idle() is the checkable form — fault/checkpoint.hpp's
//     snapshots stay complete because the wire holds no state at a barrier);
//   - receive() returns machine j's merged deliveries in the canonical
//     (sender index, send order) order of the in-process merge.
// Under this contract a run's outputs, traces, RoundStats, transcripts, and
// checkpoints are bit-identical across backends — the property the
// conformance matrix in tests/transport_conformance_test.cpp pins for every
// strategy, and the property that lets lower-bound measurements taken
// in-process carry to a deployment where the bytes are real.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "mpc/message.hpp"

namespace mpch::transport {

/// The transport failed outside the framed-decode path (router process died,
/// barrier left bytes in flight, start() misconfigured). Frame-level decode
/// failures are the more specific WireError (transport/wire.hpp).
class TransportError : public std::runtime_error {
 public:
  explicit TransportError(const std::string& what) : std::runtime_error(what) {}
};

/// Backend selector, routed through MpcConfig::transport.
enum class TransportKind : std::uint8_t {
  kInProcess = 0,
  kSocket = 2,
};

/// Parse "in-process"/"inprocess", "socket".
/// Throws std::invalid_argument on anything else (CLI flags fail loudly).
TransportKind parse_transport_kind(const std::string& name);
std::string to_string(TransportKind kind);

/// Backend tuning, mapped from MpcConfig by the simulation.
struct TransportOptions {
  /// Socket backend: number of shard-group router processes. 0 = auto
  /// (min(machines, 2)); clamped to [1, machines].
  std::uint64_t processes = 0;
  /// Frame decoder payload cap (see wire.hpp). Tests shrink it to exercise
  /// the oversized-length-prefix gate without 8 MiB inputs.
  std::uint64_t max_payload_bits = 0;  ///< 0 = kDefaultMaxPayloadBits
};

class Transport {
 public:
  virtual ~Transport() = default;

  virtual std::string name() const = 0;

  /// Bind to an execution: called once before the first barrier of a
  /// run/resume with the machine count. The socket backend spawns its
  /// router processes here (never lazily mid-round).
  virtual void start(std::uint64_t machines) = 0;

  // No backend stages an outbox and the simulation never calls stage() or
  // collect_staged(). They are kept only so perfbench's TimedTransport
  // decorator, which overrides them, still compiles; they go with the
  // benchmark change that retires SharedOracleMemo.
  virtual bool stage(std::uint64_t /*round*/, std::uint64_t /*machine*/,
                     const std::vector<mpc::Message>& /*outbox*/) {
    return false;
  }

  virtual std::vector<mpc::Message> collect_staged(std::uint64_t /*round*/,
                                                   std::uint64_t /*machine*/) {
    throw TransportError(name() + ": collect_staged without a staged outbox");
  }

  /// Barrier step 1 — machine `from`'s outbox, validated and metered, in
  /// machine index order on the barrier thread.
  virtual void send(std::uint64_t round, std::uint64_t from,
                    std::vector<mpc::Message> outbox) = 0;

  /// Barrier step 2 — all sends of the round are in; move every byte.
  virtual void flush(std::uint64_t round) = 0;

  /// Barrier step 3 — machine `to`'s merged deliveries in canonical
  /// (sender, send order) order. Called once per machine, in index order.
  virtual std::vector<mpc::Message> receive(std::uint64_t round, std::uint64_t to) = 0;

  /// True iff no message bytes are in flight or buffered. The round loop
  /// asserts this at every committed barrier: RoundSnapshot is the complete
  /// execution state only because the wire is provably empty when it is
  /// taken (checkpoint/resume capture nothing in flight because there is
  /// nothing in flight to capture).
  virtual bool idle() const = 0;
};

/// Build a backend. Socket construction forks router processes at start().
std::unique_ptr<Transport> make_transport(TransportKind kind, const TransportOptions& options = {});

}  // namespace mpch::transport
