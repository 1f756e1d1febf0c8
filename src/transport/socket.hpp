// socket.hpp — multi-process backend: router processes over AF_UNIX sockets.
//
// Machines are partitioned into G contiguous shard groups; start() forks one
// *router* OS process per group. The parent keeps the computation (machines
// still run on the parent's worker pool — the model's machines are
// algorithm state, not processes); what moves across process boundaries is
// every message byte of every round:
//
//   parent ──frames──▶ router(group(from)) ──frames──▶ router(group(to))
//                                                        │
//   parent ◀──────────────── sorted deliveries ──────────┘
//
// Channels are AF_UNIX stream socketpairs: one parent↔router duplex channel
// per router, plus a full mesh of router↔router channels. Every message is
// one kData frame and takes at most one hop through the mesh; a payload sent
// to many machines is as many frames, the m messages Definition 2.1 charges
// for it. Each router delivers its group's frames to the parent *sorted by
// (to, from, seq)* so the parent-side InboxAssembler can enforce the
// per-sender monotone-seq protocol and rebuild the canonical inbox order.
//
// The round protocol is strictly barrier-quiescent: the parent's flush()
// sends a kFlush token to every router and then drains until every router
// has answered kFlushDone; after that, no frame is buffered or in flight
// anywhere (idle() checks the parent-side remains). That is what keeps
// RoundSnapshot/checkpointing untouched by multi-process execution — there
// is never wire state to capture at a barrier.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "transport/transport.hpp"
#include "transport/wire.hpp"

namespace mpch::transport {

class SocketTransport final : public Transport {
 public:
  explicit SocketTransport(const TransportOptions& options = {});
  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  std::string name() const override { return "socket"; }

  void start(std::uint64_t machines) override;

  void send(std::uint64_t round, std::uint64_t from,
            std::vector<mpc::Message> outbox) override;
  void flush(std::uint64_t round) override;
  std::vector<mpc::Message> receive(std::uint64_t round, std::uint64_t to) override;

  bool idle() const override;

  std::uint64_t router_count() const { return groups_; }

  /// Test hook: called for every data frame the parent decodes off a router
  /// socket, before it is assembled into an inbox. Mutating the frame here
  /// is tampering *on the wire path* — downstream the frame is
  /// indistinguishable from one a compromised router emitted, so RO-MAC
  /// verification must catch it with the same provenance as an in-process
  /// injection. Byzantine wire tests are built on this.
  void set_wire_tamper(std::function<void(WireFrame&)> tamper) { tamper_ = std::move(tamper); }

 private:
  std::uint64_t group_of(std::uint64_t machine) const { return machine / group_size_; }
  void shutdown();

  std::uint64_t requested_processes_;
  std::uint64_t max_payload_bits_;
  std::function<void(WireFrame&)> tamper_;

  std::uint64_t machines_ = 0;
  std::uint64_t groups_ = 0;
  std::uint64_t group_size_ = 0;
  std::vector<int> router_fds_;    ///< parent end of each parent↔router channel
  std::vector<pid_t> router_pids_;
  std::vector<FrameDecoder> decoders_;       ///< one per router channel (streams persist)
  std::vector<InboxAssembler> assemblers_;   ///< one per machine, rebuilt each round
  std::uint64_t assembled_round_ = 0;
  bool started_ = false;
};

}  // namespace mpch::transport
