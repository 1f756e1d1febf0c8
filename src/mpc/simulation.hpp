// simulation.hpp — the Massively Parallel Computation model, executable.
//
// A faithful implementation of Definitions 2.1/2.2:
//   * m machines, each with local memory of size s bits — enforced: a
//     machine's entire cross-round state is the union of messages addressed
//     to it, and that union may not exceed s bits;
//   * synchronous rounds; within a round a machine sees only its own memory
//     (inbox), the shared random tape, and its (budgeted) oracle;
//   * per-round per-machine oracle query budget q (Definition 2.2 /
//     Theorem 3.1's q < 2^{n/4}) — enforced by CountingOracle;
//   * the input is split across machines before round 0, each share also
//     bounded by s.
//
// Algorithms implement MpcAlgorithm. They must be *stateless across rounds*
// apart from what they put in messages; the harness gives them no other
// channel. (Read-only configuration — parameters, codecs — is part of the
// algorithm description and is allowed, exactly as the model allows each
// machine to run an arbitrary known program.)
//
// Round execution is the paper's "all m machines run concurrently" made
// literal: with MpcConfig::threads > 1, the machines of a round execute on a
// worker pool, with a barrier before any cross-machine state is touched.
// Every run — serial or parallel, any thread count — produces bit-identical
// results: per-machine outputs/outboxes/annotations land in per-machine
// slots and merge in machine index order, and each machine's oracle records
// join the transcript at the barrier in machine order, so the log is in the
// stable (round, machine, per-machine seq) order by construction. The
// determinism matrix in tests/transport_conformance_test.cpp pins this
// equivalence down for every catalog strategy, and the same exception when a
// bound breaks; tests/parallel_simulation_test.cpp adds the cases the catalog
// cannot express.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "hash/oracle_transcript.hpp"
#include "hash/random_oracle.hpp"
#include "mpc/arena.hpp"
#include "mpc/auth.hpp"
#include "mpc/message.hpp"
#include "mpc/shared_tape.hpp"
#include "mpc/trace.hpp"
#include "transport/transport.hpp"
#include "util/bitstring.hpp"
#include "util/thread_pool.hpp"

namespace mpch::mpc {

/// Thrown when a machine's round-start memory (inbox union) exceeds s bits.
class MemoryViolation : public std::runtime_error {
 public:
  explicit MemoryViolation(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when a machine addresses a message to a machine index >= m. The
/// diagnostic names the sending machine and round (the static analogue lives
/// in analysis::check_spec, which rejects such protocols before execution).
class RoutingViolation : public std::runtime_error {
 public:
  explicit RoutingViolation(const std::string& what) : std::runtime_error(what) {}
};

struct MpcConfig {
  std::uint64_t machines = 0;           ///< m
  std::uint64_t local_memory_bits = 0;  ///< s
  std::uint64_t query_budget = 0;       ///< q, per machine per round
  std::uint64_t max_rounds = 1 << 20;   ///< safety cap for non-terminating algorithms
  std::uint64_t tape_seed = 0;          ///< seed of the shared random tape
  /// Worker threads running the machines of a round concurrently. 0 or 1 =
  /// serial (the default). Results are bit-identical to the serial path for
  /// any value: outputs/messages merge in machine index order after the
  /// round barrier, trace counters reduce deterministically, and the oracle
  /// transcript is appended in (round, machine, seq) order there. Requires
  /// the algorithm's run_machine to be safe to call concurrently for
  /// *different* machines (all in-tree strategies are). Pinned by the
  /// in-process cells of tests/transport_conformance_test.cpp.
  std::uint64_t threads = 0;
  /// Authenticated messaging (off by default — zero behavior change when
  /// off). When on, MachineIo::send appends a kMessageTagBits MAC derived
  /// from the shared tape seed + round + sender/receiver to every payload,
  /// and the round loop verifies every delivery at the barrier, throwing
  /// mpc::TamperViolation with machine/round/byte-offset provenance on a
  /// mismatch. Algorithms see tag-stripped inboxes and need no changes, but
  /// the tag bits ride inside the messages, so they count against s, the
  /// communication stats, and the ProtocolSpec envelopes (see
  /// analysis::with_authentication) — authentication is not free, and the
  /// model meters it.
  bool authenticate_messages = false;
  /// Message delivery backend (src/transport/). Every backend produces
  /// bit-identical results — same outputs, traces, RoundStats, transcripts,
  /// checkpoints — because deliveries arrive in the canonical (sender index,
  /// send order) merge order and every transport is quiescent at each round
  /// barrier. The default moves messages in-process with zero copies;
  /// kSocket forks router processes and moves every message over AF_UNIX
  /// sockets with binomial-tree broadcast dissemination.
  /// The socket cells of tests/transport_conformance_test.cpp pin the
  /// equivalence for every catalog strategy, plain and MAC-tagged.
  transport::TransportKind transport = transport::TransportKind::kInProcess;
  /// Socket backend: shard-group router process count. 0 = auto (2 for
  /// m > 1); clamped to [1, machines]. Ignored by the other backends.
  std::uint64_t transport_processes = 0;
};

/// Per-machine, per-round context handed to the algorithm.
struct MachineIo {
  std::uint64_t round = 0;
  std::uint64_t machine = 0;
  std::uint64_t machines = 0;  ///< m; when nonzero, send() rejects to >= m eagerly
  bool authenticate = false;   ///< MpcConfig::authenticate_messages, per-round copy
  std::uint64_t tape_seed = 0;  ///< MAC key material when authenticate is set
  const std::vector<Message>* inbox = nullptr;  ///< this machine's memory M_i^k
  std::vector<Message> outbox;                  ///< messages to deliver next round
  std::optional<util::BitString> output;        ///< set to contribute to the final output

  void send(std::uint64_t to, util::BitString payload) {
    if (machines != 0 && to >= machines) {
      throw RoutingViolation("machine " + std::to_string(machine) + " sent a message to machine " +
                             std::to_string(to) + " >= m=" + std::to_string(machines) +
                             " in round " + std::to_string(round));
    }
    if (authenticate) {
      // Tag over the plain payload; the tag travels inside the message, so
      // every meter (s, sent/recv bits, message size peaks) sees it.
      const std::size_t body_bits = payload.size();
      const std::uint64_t tag = message_tag_u64(tape_seed, round, machine, to, payload, body_bits);
      payload.pad_zeros(kMessageTagBits);
      payload.set_uint(body_bits, kMessageTagBits, tag);
    }
    outbox.push_back({machine, to, std::move(payload)});
  }
};

class MpcAlgorithm {
 public:
  virtual ~MpcAlgorithm() = default;

  /// Run machine `io.machine` for round `io.round`. Oracle may be null for
  /// plain-model (Definition 2.1) algorithms.
  virtual void run_machine(MachineIo& io, hash::CountingOracle* oracle, const SharedTape& tape,
                           RoundTrace& trace) = 0;

  virtual std::string name() const = 0;
};

/// View of the committed state at a round barrier, handed to
/// RoundObserver::after_round. `next_inboxes` is the message state the next
/// round will start from, still tagged under authenticate_messages (the next
/// round strips the tags in place after metering). Together with the trace
/// and the transcript this is the *complete* resumable state of an
/// execution (machines are stateless across rounds by construction, and the
/// oracle's memo is rebuilt from the transcript), which is what makes
/// fault/checkpoint.hpp's snapshots sufficient for bit-identical recovery.
/// The round loop computes no attestation digests: they are a pure function
/// of (tape seed, round, next_inboxes) (auth.hpp), so an observer or
/// recovery policy that wants them derives them from this view or from a
/// checkpoint.
struct RoundSnapshot {
  std::uint64_t round = 0;   ///< the round that just committed
  bool completed = false;    ///< an output was produced; the run is over
  const std::vector<std::vector<Message>>* next_inboxes = nullptr;
  const RoundTrace* trace = nullptr;
  const hash::OracleTranscript* transcript = nullptr;
};

/// Hooks driven by the round loop at its deterministic single-threaded
/// points (never while machines are running). The fault subsystem
/// (src/fault) implements these for checkpointing and fault injection; all
/// defaults are no-ops, so plain runs pay nothing. Any hook may throw to
/// abort the run — the exception propagates out of run()/resume() with the
/// round uncommitted.
class RoundObserver {
 public:
  virtual ~RoundObserver() = default;

  /// Called before the machines of `round` execute.
  virtual void before_round(std::uint64_t /*round*/) {}

  /// Phase-A gate: return false to keep `machine` from running this round
  /// (a crash fault). The machine's inbox is still consumed and it sends
  /// nothing — exactly a machine that died at the round boundary.
  virtual bool machine_runs(std::uint64_t /*round*/, std::uint64_t /*machine*/) { return true; }

  /// Called after the deterministic merge with the next round's inboxes,
  /// before the inbox-capacity check. May mutate them (message drop /
  /// duplicate faults).
  virtual void after_merge(std::uint64_t /*round*/,
                           std::vector<std::vector<Message>>& /*next_inboxes*/) {}

  /// Called once the round has fully committed (capacity enforced, stats
  /// merged). Checkpoints are taken here.
  virtual void after_round(const RoundSnapshot& /*snapshot*/) {}
};

/// Mid-execution state accepted by MpcSimulation::resume — the deserialised
/// form of a RoundSnapshot (see fault/checkpoint.hpp for the on-disk format).
struct MpcResumeState {
  std::uint64_t next_round = 0;                   ///< first round to execute
  std::vector<std::vector<Message>> inboxes;      ///< per-machine memory M_i^{next_round}
  RoundTrace trace;                               ///< trace of rounds [0, next_round)
  std::shared_ptr<hash::OracleTranscript> transcript;  ///< restored log; null = fresh
};

struct MpcRunResult {
  bool completed = false;             ///< some machine produced output
  std::uint64_t rounds_used = 0;      ///< R of "R-round MPC computation"
  util::BitString output;             ///< union (concatenation) of machine outputs
  RoundTrace trace;
  std::shared_ptr<hash::OracleTranscript> transcript;
};

class MpcSimulation {
 public:
  /// `oracle` may be null for plain-model algorithms.
  MpcSimulation(MpcConfig config, std::shared_ptr<hash::RandomOracle> oracle);

  /// Run `algo` from the given input partition (initial_memory[i] = M_i^0).
  /// Each share must fit in s bits; shares beyond `machines` are an error.
  /// `observer`, when non-null, receives the round-loop hooks above.
  MpcRunResult run(MpcAlgorithm& algo, const std::vector<util::BitString>& initial_memory,
                   RoundObserver* observer = nullptr);

  /// Continue an execution from a round boundary (a restored checkpoint).
  /// The caller is responsible for handing this simulation an oracle whose
  /// memo and counters were restored to the same boundary (see
  /// fault/checkpoint.hpp) — with that, the resumed run is bit-identical to
  /// an uninterrupted one: same outputs, transcript, trace, and oracle state.
  MpcRunResult resume(MpcAlgorithm& algo, MpcResumeState state,
                      RoundObserver* observer = nullptr);

  const MpcConfig& config() const { return config_; }

  /// Test/tooling hook: build the transport for subsequent executions from
  /// this factory instead of config().transport — e.g. a SocketTransport
  /// with a wire-tamper hook installed. Each run/resume calls the factory
  /// once (transports are per-execution; the socket backend forks its
  /// routers in start()).
  using TransportFactory = std::function<std::unique_ptr<transport::Transport>()>;
  void set_transport_factory(TransportFactory factory) {
    transport_factory_ = std::move(factory);
  }

  /// Recycle round-loop buffers through an externally-owned arena instead of
  /// this simulation's private one — mpch-serve workers pass their per-worker
  /// arena so buffer capacity survives *across jobs*, not just across rounds.
  /// The arena is touched only on the thread driving run()/resume(); the
  /// caller must not share one arena between concurrently-running
  /// simulations. Pass nullptr to return to the private arena.
  void set_arena(RoundArena* arena) { external_arena_ = arena; }

 private:
  struct MachineSlot;

  MpcRunResult run_rounds(MpcAlgorithm& algo, std::uint64_t start_round,
                          std::vector<std::vector<Message>> inboxes, RoundTrace trace,
                          std::shared_ptr<hash::OracleTranscript> transcript,
                          RoundObserver* observer);

  void run_round_serial(MpcAlgorithm& algo, std::vector<MachineSlot>& slots,
                        const SharedTape& tape);
  void run_round_parallel(MpcAlgorithm& algo, std::vector<MachineSlot>& slots,
                          const SharedTape& tape);

  std::unique_ptr<transport::Transport> make_run_transport() const;

  RoundArena& arena() { return external_arena_ != nullptr ? *external_arena_ : own_arena_; }

  MpcConfig config_;
  std::shared_ptr<hash::RandomOracle> oracle_;
  TransportFactory transport_factory_;
  /// Buffer recycling for the round loop (mpc/arena.hpp). The private arena
  /// makes every multi-round run reuse its own inbox-set storage; serve
  /// workers override it via set_arena to extend the reuse across jobs.
  RoundArena own_arena_;
  RoundArena* external_arena_ = nullptr;
  /// Lazily-created pool sized to config_.threads (not the host's core
  /// count): the parallelism degree is part of the experiment configuration,
  /// and a dedicated pool keeps nested simulations (e.g. inside stats/trials
  /// workers) deadlock-free since no simulation ever blocks on its own pool.
  std::unique_ptr<util::ThreadPool> pool_;
};

/// Helper: split a LineInput-style block vector across machines round-robin,
/// tagging each block with its ⌈log v⌉+1-bit index so receivers know which
/// x_i they hold. Used by strategies and examples.
std::vector<util::BitString> partition_blocks_round_robin(
    const std::vector<util::BitString>& tagged_blocks, std::uint64_t machines);

}  // namespace mpch::mpc
