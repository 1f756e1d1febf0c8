// recovery.hpp — recovery policies over checkpoints and fault injection.
//
// Three policies, all exploiting the simulator's bit-determinism:
//
//  * RestartFromCheckpoint (ChaosHarness::run_restart) — snapshot every j
//    rounds; when a fault is detected, discard the poisoned execution
//    entirely (including its oracle, whose query counter the aborted rounds
//    inflated), rebuild a fresh oracle from the seed, rebuild its memo from
//    the snapshot's transcript, and resume. Because every run is bit-deterministic, the
//    resumed execution is indistinguishable from one that never faulted.
//
//  * ReplicateRound (ChaosHarness::run_replicate) — keep a shadow snapshot
//    of every round boundary (j = 1, plus the pre-round-0 state); on a
//    fault, re-execute just the faulted round on TWO independent restored
//    replicas and require their serialised end states to be bit-identical
//    before adopting one. The comparison is the determinism theorem used as
//    a runtime check: any divergence means the substrate itself broke, and
//    it surfaces as ReplicaDivergence instead of silently continuing.
//
//  * Quarantine (ChaosHarness::run_quarantine) — the Byzantine policy. The
//    first two assume fail-stop detection (the injector throws); quarantine
//    assumes nothing: faults apply *silently* and the policy itself detects
//    them by stepping the live execution one round at a time from the last
//    verified boundary and cross-checking each committed round against a
//    clean replica of the same round (serialised-state and oracle-table
//    equality, the determinism theorem as an integrity oracle). On divergence it
//    localises the offending machine by comparing per-machine attestation
//    digests (mpc/auth.hpp), records a strike against it, quarantines the
//    faulty attempt (all of its state is discarded — the stateless-machine
//    model makes a re-executed machine indistinguishable from a replaced
//    one), and re-runs the round with bounded retries; repeated divergence
//    escalates to a RestartFromCheckpoint-style rollback to the last
//    periodic checkpoint. With MpcConfig::authenticate_messages on,
//    flip/forge faults additionally surface as typed mpc::TamperViolation
//    at the faulted round's own barrier, before any cross-check runs.
//
// All report RecoveryCost: what the faults cost in re-executed rounds,
// machine-rounds, verification replicas, and snapshot bytes.
// ChaosHarness::run is the one dispatch over the policy names in
// kPolicyNames.
//
// Every restore decodes a snapshot's serialised (checksummed) wire form, so
// it passes the format's integrity checks: post-save checkpoint tampering
// (the tamper-ckpt verb, which the FaultInjector applies to the
// Checkpointer's stored bits) is caught at restore time instead of resuming
// corrupted state. The Checkpointer holds each periodic save as a captured
// Checkpoint value and builds those bytes only when something first reads
// them, since most saves are never restored; their byte costs come from
// encoded_bits, so every RecoveryCost is what encoding each save would give.
#pragma once

#include <array>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "fault/checkpoint.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "mpc/simulation.hpp"

namespace mpch::fault {

/// RoundObserver that snapshots the execution every `every` rounds at the
/// barrier, optionally mirrors each snapshot to a file, and tracks byte
/// costs. A save holds the captured Checkpoint; latest_encoded() builds its
/// checksummed wire bytes on the first call after the save and caches them,
/// so an unread save costs one capture copy while every restore still
/// decodes (and checksums) the wire form. The file mirror and tamper-ckpt
/// read the bytes, so they encode at every save. Rebind the oracle after a
/// restore — the replacement oracle is a different object at the same
/// logical state. Not thread-safe: latest_encoded() fills its cache.
class Checkpointer : public mpc::RoundObserver {
 public:
  Checkpointer(mpc::MpcConfig config, const hash::LazyRandomOracle* oracle, std::uint64_t every,
               std::string file_path = "", bool capture_final = false);

  void after_round(const mpc::RoundSnapshot& snapshot) override;

  void rebind_oracle(const hash::LazyRandomOracle* oracle) { oracle_ = oracle; }
  /// Seed the checkpointer with a pre-existing serialised snapshot (e.g. the
  /// initial state) so rollback before the first periodic snapshot is
  /// possible. Stored as given; costs are not counted.
  void set_latest(util::BitString encoded);

  /// The latest snapshot in its serialised wire form — what recovery
  /// policies restore from, so the checksummed format actually guards the
  /// rollback path (a post-save mutation throws CheckpointError on restore).
  /// Encodes the held snapshot on the first call after a save.
  const std::optional<util::BitString>& latest_encoded() const;
  /// Chaos hook (the tamper-ckpt verb): XOR-flip bit `bit % size` of the
  /// stored encoded snapshot and of its file mirror, modelling storage
  /// corruption after a successful save; the flipped image is what later
  /// reads return. Returns false if no snapshot exists yet.
  bool corrupt_latest_encoded(std::uint64_t bit);

  std::uint64_t checkpoints_taken() const { return checkpoints_taken_; }
  /// Wire size of the latest save and of all saves, in whole bytes
  /// (encoded_bits, so unread saves are never encoded to count them).
  std::uint64_t bytes_last() const { return bytes_last_; }
  std::uint64_t bytes_total() const { return bytes_total_; }

 private:
  mpc::MpcConfig config_;
  const hash::LazyRandomOracle* oracle_;
  std::uint64_t every_;
  std::string file_path_;
  bool capture_final_;
  // At most one is set: the latest save not yet read, or its wire bytes
  // once read (then the held value is dropped).
  mutable std::optional<Checkpoint> held_;
  mutable std::optional<util::BitString> encoded_latest_;
  std::uint64_t checkpoints_taken_ = 0;
  std::uint64_t bytes_last_ = 0;
  std::uint64_t bytes_total_ = 0;
};

/// Fans every hook out to its children in order. Every child sees every
/// barrier even when an earlier child throws: exceptions are collected and
/// the *first* one rethrown after the sweep, so e.g. an auditor chained
/// after a throwing injector still observes the hook (an injector firing in
/// before_round must not blind the observers behind it to the barrier).
/// Order still encodes detection priority — the first thrower wins.
class ObserverChain : public mpc::RoundObserver {
 public:
  explicit ObserverChain(std::vector<mpc::RoundObserver*> children)
      : children_(std::move(children)) {}

  void before_round(std::uint64_t round) override {
    sweep([&](mpc::RoundObserver* c) { c->before_round(round); });
  }
  bool machine_runs(std::uint64_t round, std::uint64_t machine) override {
    bool runs = true;
    sweep([&](mpc::RoundObserver* c) { runs = c->machine_runs(round, machine) && runs; });
    return runs;
  }
  void after_merge(std::uint64_t round,
                   std::vector<std::vector<mpc::Message>>& next_inboxes) override {
    sweep([&](mpc::RoundObserver* c) { c->after_merge(round, next_inboxes); });
  }
  void after_round(const mpc::RoundSnapshot& snapshot) override {
    sweep([&](mpc::RoundObserver* c) { c->after_round(snapshot); });
  }

 private:
  template <typename Deliver>
  void sweep(Deliver&& deliver) {
    std::exception_ptr first;
    for (auto* c : children_) {
      try {
        deliver(c);
      } catch (...) {
        if (!first) first = std::current_exception();
      }
    }
    if (first) std::rethrow_exception(first);
  }

  std::vector<mpc::RoundObserver*> children_;
};

/// What the faults cost, beyond the fault-free execution.
struct RecoveryCost {
  std::uint64_t faults_injected = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t rounds_reexecuted = 0;          ///< extra rounds vs fault-free
  std::uint64_t machine_rounds_reexecuted = 0;  ///< extra machine-rounds
  std::uint64_t replica_verifications = 0;      ///< per-round equality checks
  std::uint64_t checkpoints_taken = 0;
  std::uint64_t checkpoint_bytes_last = 0;
  std::uint64_t checkpoint_bytes_total = 0;
  // Quarantine-policy accounting.
  std::uint64_t attestation_checks = 0;   ///< rounds cross-checked against a replica
  std::uint64_t quarantine_strikes = 0;   ///< machine-localised divergences
  std::uint64_t retries_used = 0;         ///< round re-runs after a detection
  std::uint64_t escalations = 0;          ///< rollbacks to the periodic checkpoint
};

/// The recovery policies ChaosHarness::run dispatches over.
enum class RecoveryPolicy { kRestart, kReplicate, kQuarantine };

/// The one list of policy names, indexed by RecoveryPolicy. The jobfile
/// parser, serve's chaos verb and mpch-chaos all accept exactly these.
inline constexpr std::array<std::string_view, 3> kPolicyNames = {"restart", "replicate",
                                                                 "quarantine"};

/// The policy `name` names; nullopt when it is not in kPolicyNames.
std::optional<RecoveryPolicy> parse_policy(std::string_view name);

/// "unknown policy 'NAME' (want restart|replicate|quarantine)".
std::string unknown_policy_message(std::string_view name);

/// Retry/backoff schedule of the quarantine policy.
struct QuarantineConfig {
  /// Re-runs of a diverged round before escalating (faults are one-shot, so
  /// the first retry is normally already clean).
  std::uint64_t max_round_retries = 2;
  /// Strikes against one machine before escalating even if retries remain —
  /// the analogue of taking a persistently flaky node out of rotation.
  std::uint64_t escalate_after_strikes = 3;
  /// Cadence of the periodic checkpoint that escalation rolls back to (the
  /// RestartFromCheckpoint fallback inside quarantine).
  std::uint64_t checkpoint_every = 4;
};

struct ChaosResult {
  mpc::MpcRunResult run;
  RecoveryCost cost;
  std::vector<std::string> fault_log;  ///< provenance of every fired fault + recovery
  /// The surviving execution's oracle (the fresh instance installed by the
  /// last restore), for transcript/memo inspection. Null for plain-model.
  std::shared_ptr<hash::LazyRandomOracle> oracle;
};

/// A detected fault that no policy could recover from; carries provenance.
class UnrecoverableFault : public std::runtime_error {
 public:
  explicit UnrecoverableFault(const std::string& what) : std::runtime_error(what) {}
};

/// ReplicateRound's verification failed: two fault-free re-executions of the
/// same round from the same state diverged. Determinism is broken.
class ReplicaDivergence : public std::runtime_error {
 public:
  explicit ReplicaDivergence(const std::string& what) : std::runtime_error(what) {}
};

/// A failed chaos run as its report reads it: the exception's message,
/// prefixed "unrecoverable: " or "replica divergence: " for those two.
std::string describe_failure(const std::exception& e);

class ChaosHarness {
 public:
  /// Builds a *fresh* oracle at the pre-execution state (same seed every
  /// call); null for plain-model algorithms. Called once per execution
  /// attempt — restores rebuild the memo into a new instance so wasted
  /// queries from aborted rounds vanish.
  using OracleFactory = std::function<std::shared_ptr<hash::LazyRandomOracle>()>;

  ChaosHarness(mpc::MpcConfig config, OracleFactory oracle_factory);

  /// The one policy dispatch: runs the policy `policy` names (kPolicyNames).
  /// `every` is restart's checkpoint cadence and quarantine's periodic one
  /// (it overrides qc.checkpoint_every); `qc` tunes quarantine and
  /// `checkpoint_file` mirrors restart's snapshots. Throws
  /// std::invalid_argument (unknown_policy_message) for any other name.
  ChaosResult run(std::string_view policy, mpc::MpcAlgorithm& algo,
                  const std::vector<util::BitString>& initial_memory, const FaultPlan& plan,
                  std::uint64_t every, QuarantineConfig qc = {},
                  const std::string& checkpoint_file = "");

  /// RestartFromCheckpoint: snapshot every `checkpoint_every` rounds; on a
  /// fault, restore the latest snapshot and resume. Throws UnrecoverableFault
  /// if a fault lands before the first snapshot. `checkpoint_file`, when
  /// nonempty, mirrors each snapshot to disk.
  ChaosResult run_restart(mpc::MpcAlgorithm& algo,
                          const std::vector<util::BitString>& initial_memory,
                          const FaultPlan& plan, std::uint64_t checkpoint_every,
                          const std::string& checkpoint_file = "");

  /// ReplicateRound: shadow-snapshot every round; on a fault, re-execute the
  /// faulted round twice on independent restored replicas, require their end
  /// states to serialise identically (ReplicaDivergence otherwise), then
  /// adopt the verified state and continue.
  ChaosResult run_replicate(mpc::MpcAlgorithm& algo,
                            const std::vector<util::BitString>& initial_memory,
                            const FaultPlan& plan);

  /// Quarantine (Byzantine) policy: faults apply silently; every round is
  /// stepped from the last verified boundary and cross-checked against a
  /// clean replica (see the file comment for the full state machine).
  /// Detection provenance — typed violations, localised machines, strikes,
  /// escalations — lands in the fault log; the returned run is bit-identical
  /// to a fault-free execution or an exception explains why not
  /// (UnrecoverableFault after the retry/escalation budget is exhausted).
  ChaosResult run_quarantine(mpc::MpcAlgorithm& algo,
                             const std::vector<util::BitString>& initial_memory,
                             const FaultPlan& plan, const QuarantineConfig& qc = {});

 private:
  /// One round executed from the serialised boundary it starts at.
  struct RoundStep {
    mpc::MpcRunResult res;
    util::BitString encoded;  ///< end-of-round snapshot (post-tamper, if any)
    std::shared_ptr<hash::LazyRandomOracle> oracle;
    std::uint64_t bytes = 0;  ///< size of `encoded` in bytes
  };
  /// Decode `boundary` and execute exactly its next round on a fresh oracle,
  /// capturing the end state. `injector`, when given, is bound to that
  /// oracle and capture and chained after the capture; null runs clean.
  RoundStep step_round(mpc::MpcAlgorithm& algo, const util::BitString& boundary,
                       FaultInjector* injector) const;

  /// What the next fail-stop attempt runs on: its oracle and, after a
  /// recovery, the state it resumes from (empty = fresh start).
  struct Attempt {
    std::shared_ptr<hash::LazyRandomOracle> oracle;
    std::optional<mpc::MpcResumeState> state;
  };
  /// How a fail-stop policy turns a caught fault into the next Attempt.
  /// Returns true when recovery finished the run itself (out.run and
  /// out.oracle set).
  using Recover = std::function<bool(const InjectedFault&, ChaosResult&, Attempt&)>;
  /// The attempt loop restart and replicate share: run under a fail-stop
  /// injector chained after `checkpointer`, hand each caught fault to
  /// `recover`, and give up after one attempt per plan event.
  ChaosResult run_fail_stop(mpc::MpcAlgorithm& algo,
                            const std::vector<util::BitString>& initial_memory,
                            const FaultPlan& plan, Checkpointer& checkpointer,
                            const Recover& recover);

  std::shared_ptr<hash::LazyRandomOracle> fresh_oracle() const;

  mpc::MpcConfig config_;
  OracleFactory oracle_factory_;
};

}  // namespace mpch::fault
