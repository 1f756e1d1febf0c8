#include "mpc/simulation.hpp"

#include <algorithm>
#include <exception>

namespace mpch::mpc {

MpcSimulation::MpcSimulation(MpcConfig config, std::shared_ptr<hash::RandomOracle> oracle)
    : config_(config), oracle_(std::move(oracle)) {
  if (config_.machines == 0) throw std::invalid_argument("MpcSimulation: zero machines");
  if (config_.local_memory_bits == 0) {
    throw std::invalid_argument("MpcSimulation: zero local memory");
  }
}

/// Per-machine slot for one round: everything a machine produces lands here,
/// written by exactly one thread, then merged in machine index order after
/// the round barrier. The slot is what makes the parallel path deterministic:
/// no shared accumulator is touched while machines run.
struct MpcSimulation::MachineSlot {
  MachineIo io;
  RoundTrace scratch;                    ///< per-machine annotation buffer
  hash::CountingOracle* oracle = nullptr;
  bool crashed = false;  ///< fault injection: consume the inbox, run nothing
  std::exception_ptr error;

  /// Run this slot's machine. Exceptions are captured, not thrown: the round
  /// must reach its barrier so the merge can rethrow the *lowest-index*
  /// machine's failure — the same exception a serial sweep surfaces first.
  void run(MpcAlgorithm& algo, const SharedTape& tape) {
    try {
      if (oracle != nullptr) oracle->begin_round(io.round);
      if (crashed) return;
      algo.run_machine(io, oracle, tape, scratch);
    } catch (...) {
      error = std::current_exception();
    }
  }
};

std::unique_ptr<transport::Transport> MpcSimulation::make_run_transport() const {
  if (transport_factory_) return transport_factory_();
  transport::TransportOptions options;
  options.processes = config_.transport_processes;
  return transport::make_transport(config_.transport, options);
}

void MpcSimulation::run_round_serial(MpcAlgorithm& algo, std::vector<MachineSlot>& slots,
                                     const SharedTape& tape) {
  for (auto& slot : slots) slot.run(algo, tape);
}

void MpcSimulation::run_round_parallel(MpcAlgorithm& algo, std::vector<MachineSlot>& slots,
                                       const SharedTape& tape) {
  pool_->parallel_chunks(slots.size(),
                         [&](std::size_t /*chunk*/, std::size_t begin, std::size_t end) {
                           for (std::size_t i = begin; i < end; ++i) {
                             slots[i].run(algo, tape);
                           }
                         });
}

MpcRunResult MpcSimulation::run(MpcAlgorithm& algo,
                                const std::vector<util::BitString>& initial_memory,
                                RoundObserver* observer) {
  if (initial_memory.size() > config_.machines) {
    throw std::invalid_argument("MpcSimulation::run: more input shares than machines");
  }

  // Round-0 memory: the input partition (Definition 2.1: "the given input is
  // arbitrarily split and distributed among all the machines").
  std::vector<std::vector<Message>> inboxes(config_.machines);
  for (std::uint64_t i = 0; i < initial_memory.size(); ++i) {
    if (initial_memory[i].size() > config_.local_memory_bits) {
      throw MemoryViolation("input share for machine " + std::to_string(i) + " has " +
                            std::to_string(initial_memory[i].size()) + " bits > s=" +
                            std::to_string(config_.local_memory_bits));
    }
    if (!initial_memory[i].empty()) {
      inboxes[i].push_back({i, i, initial_memory[i]});
    }
  }

  return run_rounds(algo, 0, std::move(inboxes), RoundTrace{},
                    std::make_shared<hash::OracleTranscript>(), observer);
}

MpcRunResult MpcSimulation::resume(MpcAlgorithm& algo, MpcResumeState state,
                                   RoundObserver* observer) {
  if (state.inboxes.size() != config_.machines) {
    throw std::invalid_argument("MpcSimulation::resume: state has " +
                                std::to_string(state.inboxes.size()) + " inboxes for m=" +
                                std::to_string(config_.machines) + " machines");
  }
  if (state.next_round >= config_.max_rounds) {
    throw std::invalid_argument("MpcSimulation::resume: next_round " +
                                std::to_string(state.next_round) + " >= max_rounds " +
                                std::to_string(config_.max_rounds));
  }
  auto transcript =
      state.transcript ? std::move(state.transcript) : std::make_shared<hash::OracleTranscript>();
  return run_rounds(algo, state.next_round, std::move(state.inboxes), std::move(state.trace),
                    std::move(transcript), observer);
}

MpcRunResult MpcSimulation::run_rounds(MpcAlgorithm& algo, std::uint64_t start_round,
                                       std::vector<std::vector<Message>> inboxes,
                                       RoundTrace trace,
                                       std::shared_ptr<hash::OracleTranscript> transcript,
                                       RoundObserver* observer) {
  MpcRunResult result;
  result.trace = std::move(trace);
  result.transcript = std::move(transcript);
  SharedTape tape(config_.tape_seed);
  const bool auth = config_.authenticate_messages;

  // A resumed authenticated execution starts from inboxes that crossed the
  // round (start_round - 1) barrier, so they carry tags; re-verify them here
  // rather than trusting the resume state (checkpoints are checksummed, but
  // resume states can also be built by hand).
  if (auth && start_round > 0) {
    for (std::uint64_t j = 0; j < config_.machines; ++j) {
      verify_inbox_tags(config_.tape_seed, start_round - 1, j, inboxes[j]);
    }
  }

  // Message delivery backend, created per execution (a resume gets a fresh
  // one). start() runs before the worker pool exists: the socket backend
  // forks its router processes there, and forking before this simulation
  // spins up threads keeps the children single-threaded.
  std::unique_ptr<transport::Transport> transport = make_run_transport();
  transport->start(config_.machines);

  // A machine runs on one thread at a time, so parallelism beyond m is idle;
  // never run concurrently inside a ThreadPool worker (a nested simulation
  // would multiply threads for no per-round win).
  const bool parallel =
      config_.threads > 1 && config_.machines > 1 && !util::ThreadPool::in_worker();
  if (parallel && !pool_) {
    pool_ = std::make_unique<util::ThreadPool>(
        static_cast<std::size_t>(std::min<std::uint64_t>(config_.threads, config_.machines)));
  }

  // Per-machine budgeted oracle views, all over the one shared RO. Budget
  // counters reset at every round start, so a resumed execution's views are
  // indistinguishable from the originals at the same round boundary.
  std::vector<std::unique_ptr<hash::CountingOracle>> oracles;
  if (oracle_) {
    oracles.reserve(config_.machines);
    for (std::uint64_t i = 0; i < config_.machines; ++i) {
      oracles.push_back(std::make_unique<hash::CountingOracle>(
          oracle_, i, config_.query_budget, result.transcript));
    }
  }

  std::vector<util::BitString> outputs;
  bool any_output = false;

  // Per-machine slots live across rounds: their outbox vectors and the slot
  // array itself keep their capacity, so steady-state rounds run without
  // re-allocating the phase-A scaffolding. All per-round fields are reset at
  // the top of each round.
  std::vector<MachineSlot> slots(config_.machines);
  RoundArena& buffers = arena();

  for (std::uint64_t round = start_round; round < config_.max_rounds; ++round) {
    if (observer != nullptr) observer->before_round(round);
    result.trace.begin_round(round);
    std::uint64_t queries_before = oracle_ ? oracle_->total_queries() : 0;

    // Round-start memory per machine (the inbox union M_i^k) — the observed
    // counterpart of a ProtocolSpec's declared memory envelope.
    for (std::uint64_t i = 0; i < config_.machines; ++i) {
      std::uint64_t held = 0;
      for (const auto& msg : inboxes[i]) held += msg.bits();
      result.trace.current().peak_memory_bits.observe(held, i);
    }

    // Authenticated inboxes carry tags the algorithm must not see: hand each
    // machine a tag-stripped view. Round-0 inboxes are the input partition
    // (never tagged — they did not cross a barrier); the memory observation
    // above metered the tagged sizes, which is what occupies s.
    std::vector<std::vector<Message>> plain_inboxes;
    const bool stripped = auth && round > 0;
    if (stripped) {
      plain_inboxes = buffers.acquire(config_.machines);
      for (std::uint64_t i = 0; i < config_.machines; ++i) {
        plain_inboxes[i] = strip_tags(inboxes[i]);
      }
    }

    // Phase A — run all machines of the round into their slots. Within a
    // round a machine sees only its own inbox, the shared tape, and its
    // budgeted oracle view, so machines are independent and any execution
    // order (including concurrent) is model-equivalent.
    for (std::uint64_t i = 0; i < config_.machines; ++i) {
      MachineSlot& slot = slots[i];
      slot.io.round = round;
      slot.io.machine = i;
      slot.io.machines = config_.machines;
      slot.io.authenticate = auth;
      slot.io.tape_seed = config_.tape_seed;
      slot.io.inbox = stripped ? &plain_inboxes[i] : &inboxes[i];
      slot.io.outbox.clear();
      slot.io.output.reset();
      slot.scratch = RoundTrace{};
      slot.oracle = oracle_ ? oracles[i].get() : nullptr;
      slot.crashed = observer != nullptr && !observer->machine_runs(round, i);
      slot.error = nullptr;
      slot.scratch.begin_round(round);
    }
    if (parallel) {
      run_round_parallel(algo, slots, tape);
    } else {
      run_round_serial(algo, slots, tape);
    }

    // Phase B — deterministic merge in machine index order. The first
    // failing machine (lowest index) wins, exactly as in a serial sweep.
    for (const auto& slot : slots) {
      if (slot.error) std::rethrow_exception(slot.error);
    }

    for (std::uint64_t i = 0; i < config_.machines; ++i) {
      MachineSlot& slot = slots[i];
      result.trace.merge_round_from(slot.scratch);
      if (slot.oracle != nullptr) {
        result.trace.current().peak_queries.observe(slot.oracle->queries_this_round(), i);
      }
      if (slot.io.output.has_value()) {
        outputs.push_back(std::move(*slot.io.output));
        any_output = true;
      }
      // Validation and metering run on the barrier thread, against the
      // exact payloads the transport will carry.
      std::vector<Message> outbox = std::move(slot.io.outbox);
      std::uint64_t sent_bits = 0;
      result.trace.current().peak_fan_out.observe(outbox.size(), i);
      for (auto& msg : outbox) {
        // send() already validates; this backstop covers outboxes filled
        // directly (bypassing send) by tests or future callers.
        if (msg.to >= config_.machines) {
          throw RoutingViolation("machine " + std::to_string(i) + " sent a message to machine " +
                                 std::to_string(msg.to) + " >= m=" +
                                 std::to_string(config_.machines) + " in round " +
                                 std::to_string(round));
        }
        msg.from = i;
        result.trace.current().messages += 1;
        result.trace.current().communicated_bits += msg.bits();
        result.trace.current().peak_message_bits.observe(msg.bits(), i);
        sent_bits += msg.bits();
      }
      result.trace.current().peak_sent_bits.observe(sent_bits, i);
      transport->send(round, i, std::move(outbox));
    }

    // Round barrier: the transport moves every byte of the round, then each
    // machine's merged deliveries come back in the canonical (sender index,
    // send order) inbox order — identical across backends.
    transport->flush(round);
    std::vector<std::vector<Message>> next_inboxes = buffers.acquire(config_.machines);
    for (std::uint64_t j = 0; j < config_.machines; ++j) {
      next_inboxes[j] = transport->receive(round, j);
    }
    if (!transport->idle()) {
      throw transport::TransportError(
          transport->name() + " transport not quiescent at the round " + std::to_string(round) +
          " barrier (in-flight wire state would make the round snapshot incomplete)");
    }

    // Fault-injection window: dropped/duplicated deliveries are applied at
    // the barrier, after the honest merge and before capacity enforcement.
    if (observer != nullptr) observer->after_merge(round, next_inboxes);

    // Authenticated delivery: every message that crossed the barrier must
    // carry a valid tag, checked *after* the tamper window so an injected
    // flip or forged sender is caught at this round's barrier, with the
    // failing message's machine/round/byte-offset in the diagnostic.
    if (auth) {
      for (std::uint64_t j = 0; j < config_.machines; ++j) {
        verify_inbox_tags(config_.tape_seed, round, j, next_inboxes[j]);
      }
    }

    // Enforce the inbox capacity: "each machine receives no more
    // communication than its memory".
    for (std::uint64_t j = 0; j < config_.machines; ++j) {
      std::uint64_t total = 0;
      for (const auto& msg : next_inboxes[j]) total += msg.bits();
      result.trace.current().max_inbox_bits =
          std::max(result.trace.current().max_inbox_bits, total);
      result.trace.current().peak_fan_in.observe(next_inboxes[j].size(), j);
      result.trace.current().peak_recv_bits.observe(total, j);
      if (total > config_.local_memory_bits) {
        throw MemoryViolation("machine " + std::to_string(j) + " would receive " +
                              std::to_string(total) + " bits > s=" +
                              std::to_string(config_.local_memory_bits) + " after round " +
                              std::to_string(round));
      }
    }

    if (oracle_) {
      result.trace.current().oracle_queries = oracle_->total_queries() - queries_before;
    }

    result.rounds_used = round + 1;
    if (observer != nullptr) {
      RoundSnapshot snapshot;
      snapshot.round = round;
      snapshot.completed = any_output;
      snapshot.next_inboxes = &next_inboxes;
      snapshot.trace = &result.trace;
      snapshot.transcript = result.transcript.get();
      observer->after_round(snapshot);
    }
    if (stripped) buffers.release(std::move(plain_inboxes));
    if (any_output) {
      result.completed = true;
      buffers.release(std::move(next_inboxes));
      break;
    }
    buffers.release(std::move(inboxes));
    inboxes = std::move(next_inboxes);
  }
  buffers.release(std::move(inboxes));

  // Canonicalise the transcript to the (round, machine, seq) order — a no-op
  // after serial rounds, the determinism step after parallel ones.
  result.transcript->sort_canonical();

  // "the union of outputs of all the machines" — concatenated in machine
  // order of emission.
  for (const auto& o : outputs) result.output += o;
  return result;
}

std::vector<util::BitString> partition_blocks_round_robin(
    const std::vector<util::BitString>& tagged_blocks, std::uint64_t machines) {
  if (machines == 0) {
    throw std::invalid_argument("partition_blocks_round_robin: zero machines");
  }
  std::vector<util::BitString> shares(machines);
  for (std::size_t b = 0; b < tagged_blocks.size(); ++b) {
    shares[b % machines] += tagged_blocks[b];
  }
  return shares;
}

}  // namespace mpch::mpc
