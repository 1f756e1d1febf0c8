#include "fault/recovery.hpp"

#include <algorithm>
#include <utility>

#include "fault/recovery_core.hpp"
#include "util/serialize.hpp"

namespace mpch::fault {

std::optional<RecoveryPolicy> parse_policy(std::string_view name) {
  for (std::size_t i = 0; i < kPolicyNames.size(); ++i) {
    if (kPolicyNames[i] == name) return static_cast<RecoveryPolicy>(i);
  }
  return std::nullopt;
}

std::string unknown_policy_message(std::string_view name) {
  std::string want;
  for (std::string_view known : kPolicyNames) {
    if (!want.empty()) want += '|';
    want += known;
  }
  return "unknown policy '" + std::string(name) + "' (want " + want + ")";
}

std::string describe_failure(const std::exception& e) {
  if (dynamic_cast<const UnrecoverableFault*>(&e) != nullptr) {
    return std::string("unrecoverable: ") + e.what();
  }
  if (dynamic_cast<const ReplicaDivergence*>(&e) != nullptr) {
    return std::string("replica divergence: ") + e.what();
  }
  return e.what();
}

Checkpointer::Checkpointer(mpc::MpcConfig config, const hash::LazyRandomOracle* oracle,
                           std::uint64_t every, std::string file_path, bool capture_final)
    : config_(config),
      oracle_(oracle),
      every_(every),
      file_path_(std::move(file_path)),
      capture_final_(capture_final) {
  if (every_ == 0) throw std::invalid_argument("Checkpointer: snapshot cadence must be >= 1");
}

void Checkpointer::after_round(const mpc::RoundSnapshot& snapshot) {
  if (snapshot.completed && !capture_final_) return;  // the run is over; nothing to resume
  if (!snapshot.completed && !snapshot_due(snapshot.round, every_)) return;
  held_ = capture(snapshot, config_, oracle_);
  encoded_latest_.reset();
  bytes_last_ = (encoded_bits(*held_) + 7) / 8;
  bytes_total_ += bytes_last_;
  ++checkpoints_taken_;
  if (!file_path_.empty()) util::write_bits_file(file_path_, *latest_encoded());
}

void Checkpointer::set_latest(util::BitString encoded) {
  held_.reset();
  encoded_latest_ = std::move(encoded);
}

const std::optional<util::BitString>& Checkpointer::latest_encoded() const {
  if (held_.has_value()) {
    encoded_latest_ = serialize(*held_);
    held_.reset();
  }
  return encoded_latest_;
}

bool Checkpointer::corrupt_latest_encoded(std::uint64_t bit) {
  if (!latest_encoded().has_value() || encoded_latest_->empty()) return false;
  std::size_t pos = static_cast<std::size_t>(bit % encoded_latest_->size());
  encoded_latest_->set(pos, !encoded_latest_->get(pos));
  if (!file_path_.empty()) util::write_bits_file(file_path_, *encoded_latest_);
  return true;
}

ChaosHarness::ChaosHarness(mpc::MpcConfig config, OracleFactory oracle_factory)
    : config_(config), oracle_factory_(std::move(oracle_factory)) {}

std::shared_ptr<hash::LazyRandomOracle> ChaosHarness::fresh_oracle() const {
  return oracle_factory_ ? oracle_factory_() : nullptr;
}

ChaosResult ChaosHarness::run(std::string_view policy, mpc::MpcAlgorithm& algo,
                              const std::vector<util::BitString>& initial_memory,
                              const FaultPlan& plan, std::uint64_t every, QuarantineConfig qc,
                              const std::string& checkpoint_file) {
  const std::optional<RecoveryPolicy> chosen = parse_policy(policy);
  if (!chosen.has_value()) throw std::invalid_argument(unknown_policy_message(policy));
  switch (*chosen) {
    case RecoveryPolicy::kRestart:
      return run_restart(algo, initial_memory, plan, every, checkpoint_file);
    case RecoveryPolicy::kReplicate:
      return run_replicate(algo, initial_memory, plan);
    case RecoveryPolicy::kQuarantine:
      break;
  }
  qc.checkpoint_every = every;
  return run_quarantine(algo, initial_memory, plan, qc);
}

ChaosHarness::RoundStep ChaosHarness::step_round(mpc::MpcAlgorithm& algo,
                                                 const util::BitString& boundary,
                                                 FaultInjector* injector) const {
  const Checkpoint cp = deserialize(boundary);
  RoundStep s;
  s.oracle = fresh_oracle();
  mpc::MpcConfig one_round = config_;
  one_round.max_rounds = cp.next_round + 1;
  Checkpointer capturer(config_, s.oracle.get(), /*every=*/1, "", /*capture_final=*/true);
  std::vector<mpc::RoundObserver*> observers{&capturer};
  if (injector != nullptr) {
    injector->bind_oracle(s.oracle.get());
    injector->bind_checkpointer(&capturer);
    observers.push_back(injector);
  }
  ObserverChain chain(std::move(observers));
  mpc::MpcSimulation sim(one_round, s.oracle);
  s.res = sim.resume(algo, make_resume_state(cp, s.oracle.get()), &chain);
  if (!capturer.latest_encoded().has_value()) {
    throw ReplicaDivergence("round " + std::to_string(cp.next_round) +
                            " produced no end-of-round snapshot");
  }
  s.encoded = *capturer.latest_encoded();
  s.bytes = capturer.bytes_last();
  return s;
}

ChaosResult ChaosHarness::run_fail_stop(mpc::MpcAlgorithm& algo,
                                        const std::vector<util::BitString>& initial_memory,
                                        const FaultPlan& plan, Checkpointer& checkpointer,
                                        const Recover& recover) {
  ChaosResult out;
  FaultInjector injector(plan, /*fail_stop=*/true);
  injector.bind_checkpointer(&checkpointer);
  ObserverChain chain({&checkpointer, &injector});  // save first, then tamper with it
  Attempt next{fresh_oracle(), std::nullopt};

  std::uint64_t caught_faults = 0;
  const std::size_t max_attempts = plan.events.size() + 1;
  for (std::size_t attempt = 0; attempt < max_attempts; ++attempt) {
    checkpointer.rebind_oracle(next.oracle.get());
    injector.bind_oracle(next.oracle.get());
    mpc::MpcSimulation sim(config_, next.oracle);
    try {
      out.run = next.state.has_value() ? sim.resume(algo, std::move(*next.state), &chain)
                                       : sim.run(algo, initial_memory, &chain);
      out.oracle = std::move(next.oracle);
    } catch (const InjectedFault& fault) {
      ++caught_faults;
      out.fault_log.emplace_back(fault.what());
      if (!recover(fault, out, next)) continue;
    }
    // Caught faults plus fired tamper-ckpt events (which never throw); a
    // no-op event that fired silently costs nothing and is not counted.
    const auto& fired = injector.fired();
    out.cost.faults_injected =
        caught_faults + std::count_if(fired.begin(), fired.end(), [](const FaultEvent& ev) {
          return ev.kind == FaultKind::TamperCheckpoint;
        });
    out.cost.checkpoints_taken = checkpointer.checkpoints_taken();
    out.cost.checkpoint_bytes_last = checkpointer.bytes_last();
    out.cost.checkpoint_bytes_total = checkpointer.bytes_total();
    return out;
  }
  throw UnrecoverableFault("fault plan still firing after " + std::to_string(max_attempts) +
                           " recovery attempts — plan: " + plan.describe());
}

ChaosResult ChaosHarness::run_restart(mpc::MpcAlgorithm& algo,
                                      const std::vector<util::BitString>& initial_memory,
                                      const FaultPlan& plan, std::uint64_t checkpoint_every,
                                      const std::string& checkpoint_file) {
  Checkpointer checkpointer(config_, nullptr, checkpoint_every, checkpoint_file);
  return run_fail_stop(
      algo, initial_memory, plan, checkpointer,
      [&](const InjectedFault& fault, ChaosResult& out, Attempt& next) {
        if (!checkpointer.latest_encoded().has_value()) {
          throw UnrecoverableFault(std::string(fault.what()) +
                                   " — no checkpoint exists yet (cadence: every " +
                                   std::to_string(checkpoint_every) +
                                   " round(s)); nothing to restore, cannot recover");
        }
        // Restore from the serialised snapshot so the wire format's integrity
        // checks guard the rollback (CheckpointError on a tampered save).
        const Checkpoint cp = deserialize(*checkpointer.latest_encoded());
        // A kill (and a garbled oracle, corrupted before the round ran) fires
        // *before* its round executes; crash/message/byzantine-delivery faults
        // poison the round they fire in, so that round re-executes too. The
        // resume boundary and the lost-round accounting come from the shared
        // decision core (recovery_core.hpp) that mpch-model explores.
        const bool pre_round = dynamic_cast<const SimulationKilled*>(&fault) != nullptr ||
                               fault.event().kind == FaultKind::GarbleOracle;
        const std::uint64_t lost =
            plan_restart(pre_round, fault.event().round, cp.next_round).rounds_lost;
        ++out.cost.recoveries;
        out.cost.rounds_reexecuted += lost;
        out.cost.machine_rounds_reexecuted += lost * config_.machines;

        // Discard the poisoned execution wholesale: fresh oracle (same seed)
        // rebuilt from the snapshot's transcript, state rebuilt.
        next.oracle = fresh_oracle();
        next.state = make_resume_state(cp, next.oracle.get());
        out.fault_log.push_back("recovered: restored checkpoint at round boundary " +
                                std::to_string(cp.next_round) + ", re-executing " +
                                std::to_string(lost) + " round(s)");
        return false;
      });
}

ChaosResult ChaosHarness::run_replicate(mpc::MpcAlgorithm& algo,
                                        const std::vector<util::BitString>& initial_memory,
                                        const FaultPlan& plan) {
  // Shadow every round boundary, starting from the pre-round-0 state, so any
  // faulted round has its exact start state on hand.
  Checkpointer shadow(config_, nullptr, /*every=*/1);
  shadow.set_latest(serialize(initial_checkpoint(config_, initial_memory, fresh_oracle().get())));
  return run_fail_stop(
      algo, initial_memory, plan, shadow,
      [&](const InjectedFault& fault, ChaosResult& out, Attempt& next) {
        // Always present (seeded with the initial state); decoded from the
        // checksummed wire form so a tampered shadow is rejected, not resumed.
        const util::BitString& boundary = *shadow.latest_encoded();
        ++out.cost.recoveries;
        if (dynamic_cast<const SimulationKilled*>(&fault) != nullptr) {
          // Nothing executed past the shadow; restore and carry on.
          const Checkpoint cp = deserialize(boundary);
          next.oracle = fresh_oracle();
          next.state = make_resume_state(cp, next.oracle.get());
          out.fault_log.push_back("recovered: resumed from round boundary " +
                                  std::to_string(cp.next_round));
          return false;
        }

        // Crash, message or Byzantine fault inside round r (the shadow's
        // boundary, since it tracks every one): re-execute r on two
        // independent restored replicas and demand bit-identical end states.
        const std::uint64_t round = fault.event().round;
        RoundStep a = step_round(algo, boundary, nullptr);
        RoundStep b = step_round(algo, boundary, nullptr);
        ++out.cost.replica_verifications;
        out.cost.rounds_reexecuted += 2;
        out.cost.machine_rounds_reexecuted += 2 * config_.machines;
        if (a.encoded != b.encoded || a.res.output != b.res.output) {
          throw ReplicaDivergence("round " + std::to_string(round) +
                                  " re-executed twice from the same state produced different "
                                  "results — determinism broken, refusing to continue");
        }
        out.fault_log.push_back("recovered: round " + std::to_string(round) +
                                " re-executed on two replicas, merged states bit-identical");

        if (b.res.completed) {
          out.run = std::move(b.res);
          out.oracle = std::move(b.oracle);
          return true;
        }
        // Adopt replica B as bits: its oracle is already at the end-of-round
        // state.
        next.oracle = std::move(b.oracle);
        next.state = make_resume_state(deserialize(b.encoded), next.oracle.get());
        shadow.set_latest(std::move(b.encoded));
        return false;
      });
}

ChaosResult ChaosHarness::run_quarantine(mpc::MpcAlgorithm& algo,
                                         const std::vector<util::BitString>& initial_memory,
                                         const FaultPlan& plan, const QuarantineConfig& qc) {
  if (qc.checkpoint_every == 0) {
    throw std::invalid_argument("run_quarantine: checkpoint cadence must be >= 1");
  }
  ChaosResult out;
  // Byzantine mode: the injector corrupts silently; detection is ours. The
  // retry/strike/escalation decisions live in QuarantineCore
  // (recovery_core.hpp) — the same transition function mpch-model explores —
  // while this harness supplies verdicts and moves the serialised snapshots
  // the core's decisions refer to.
  FaultInjector injector(plan, /*fail_stop=*/false);
  QuarantineCore core(qc, config_.machines, /*escalation_budget=*/plan.events.size() + 1);

  // The last *verified* round boundary and the periodic escalation target,
  // both kept in serialised form so every restore passes the wire format's
  // integrity checks.
  util::BitString good =
      serialize(initial_checkpoint(config_, initial_memory, fresh_oracle().get()));
  util::BitString periodic = good;

  // Execute exactly one round from the verified boundary. The live attempt
  // carries the injector; the clean replica runs bare. Either way the
  // end-of-round state comes back serialised.
  auto step = [&](FaultInjector* faults) -> RoundStep {
    RoundStep s = step_round(algo, good, faults);
    ++out.cost.checkpoints_taken;
    out.cost.checkpoint_bytes_last = s.bytes;
    out.cost.checkpoint_bytes_total += s.bytes;
    return s;
  };

  bool run_done = false;
  while (!run_done && core.next_round() < config_.max_rounds) {
    bool committed = false;
    while (!committed) {
      const std::uint64_t round = core.next_round();
      std::optional<RoundVerdict> verdict;  // set as soon as the attempt is condemned
      std::optional<std::uint64_t> culprit;  // machine localised this attempt

      std::optional<RoundStep> live;
      try {
        live = step(&injector);
      } catch (const mpc::TamperViolation& tv) {
        // Authenticated messaging caught the corruption at the faulted
        // round's own barrier, with the machine already named.
        verdict = RoundVerdict::kDivergentMachine;
        culprit = tv.machine();
        out.fault_log.push_back(std::string("detected: ") + tv.what());
      } catch (const SimulationKilled& kill) {
        verdict = RoundVerdict::kKilled;
        out.fault_log.push_back(std::string("detected: ") + kill.what());
      } catch (const std::exception& e) {
        // A model guard (capacity, query budget) or the algorithm itself
        // tripping over corrupted state is detection too: quarantine the
        // attempt and re-run. A genuine harness bug shows the same way but
        // cannot loop — the retry/escalation budget bounds it and the last
        // message lands in the UnrecoverableFault provenance.
        verdict = RoundVerdict::kDivergentShared;
        out.fault_log.push_back(std::string("detected: live round failed — ") + e.what());
      }

      // Cross-check replica: the same round, re-executed clean from the
      // same verified boundary. Determinism makes inequality == corruption.
      RoundStep ref = step(nullptr);
      ++out.cost.attestation_checks;
      ++out.cost.replica_verifications;
      ++out.cost.rounds_reexecuted;
      out.cost.machine_rounds_reexecuted += config_.machines;

      if (!verdict.has_value() && live.has_value()) {
        std::optional<Checkpoint> cp_live;
        try {
          cp_live = deserialize(live->encoded);
        } catch (const CheckpointError& e) {
          verdict = RoundVerdict::kDivergentShared;
          out.fault_log.push_back("detected: round " + std::to_string(round) +
                                  " snapshot audit failed — " + e.what());
        }
        // Snapshots hold the transcript, not the memo: a garbled entry no
        // machine queries again shows only in the oracles' tables.
        if (!verdict.has_value() && live->encoded == ref.encoded &&
            (live->oracle == nullptr ||
             live->oracle->touched_table() == ref.oracle->touched_table())) {
          verdict = RoundVerdict::kClean;
        } else if (!verdict.has_value()) {
          // Localise the offender: first machine whose end-of-round
          // attestation digest disagrees with the clean replica's.
          Checkpoint cp_ref = deserialize(ref.encoded);
          std::vector<std::uint64_t> att_live =
              mpc::attestation_digests(config_.tape_seed, round, cp_live->inboxes);
          std::vector<std::uint64_t> att_ref =
              mpc::attestation_digests(config_.tape_seed, round, cp_ref.inboxes);
          for (std::uint64_t mch = 0; mch < att_live.size() && mch < att_ref.size(); ++mch) {
            if (att_live[mch] != att_ref[mch]) {
              culprit = mch;
              break;
            }
          }
          if (culprit.has_value()) {
            verdict = RoundVerdict::kDivergentMachine;
            out.fault_log.push_back(
                "detected: round " + std::to_string(round) + " attestation mismatch at machine " +
                std::to_string(*culprit) + " (live digest " + std::to_string(att_live[*culprit]) +
                " != replica digest " + std::to_string(att_ref[*culprit]) + ")");
          } else {
            verdict = RoundVerdict::kDivergentShared;
            out.fault_log.push_back("detected: round " + std::to_string(round) +
                                    " diverged from its clean replica in shared state (oracle "
                                    "memo or trace) — all machine attestations agree");
          }
        }
      }

      const QuarantineAction action = core.on_verdict(*verdict, culprit);
      if (culprit.has_value()) {
        ++out.cost.quarantine_strikes;
        out.fault_log.push_back("quarantine: machine " + std::to_string(*culprit) + " struck (" +
                                std::to_string(core.strikes(*culprit)) + " strike(s)), its round " +
                                std::to_string(round) + " execution discarded");
      }
      switch (action) {
        case QuarantineAction::kCommit: {
          good = std::move(live->encoded);
          if (core.took_periodic()) periodic = good;
          out.run = std::move(live->res);
          out.oracle = std::move(live->oracle);
          run_done = out.run.completed;
          committed = true;
          break;
        }
        case QuarantineAction::kUnrecoverable: {
          throw UnrecoverableFault("quarantine exhausted its escalation budget (" +
                                   std::to_string(core.escalation_budget()) + ") and round " +
                                   std::to_string(round) + " still diverges — plan: " +
                                   plan.describe());
        }
        case QuarantineAction::kEscalate: {
          const bool machine_over_limit =
              culprit.has_value() && core.strikes(*culprit) >= qc.escalate_after_strikes;
          ++out.cost.escalations;
          ++out.cost.recoveries;
          Checkpoint pc = deserialize(periodic);
          out.cost.rounds_reexecuted += round - pc.next_round;
          out.cost.machine_rounds_reexecuted += (round - pc.next_round) * config_.machines;
          out.fault_log.push_back(
              (machine_over_limit
                   ? "escalation: machine " + std::to_string(*culprit) + " reached " +
                         std::to_string(core.strikes(*culprit)) + " strike(s); "
                   : "escalation: round " + std::to_string(round) + " exhausted its " +
                         std::to_string(qc.max_round_retries) + " retries; ") +
              "restarting from the periodic checkpoint at round boundary " +
              std::to_string(pc.next_round));
          good = periodic;
          committed = true;  // leave the attempt loop; the round rolled back
          break;
        }
        case QuarantineAction::kRetry: {
          ++out.cost.retries_used;
          ++out.cost.recoveries;
          out.fault_log.push_back("recovered: re-running round " + std::to_string(round) +
                                  " on fresh replicas (retry " + std::to_string(core.attempt()) +
                                  ")");
          break;
        }
      }
    }
  }
  // Every fired event counts, silent no-ops included. Without completion,
  // max_rounds ran out, like a plain run.
  out.cost.faults_injected = injector.faults_fired();
  return out;
}

}  // namespace mpch::fault
