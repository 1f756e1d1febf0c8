// injector.hpp — drives a FaultPlan through the round-loop hooks.
//
// Faults are applied at the simulation's deterministic barrier points (the
// RoundObserver hooks), never mid-phase-A, so an injected run is as
// reproducible as a clean one. Detection follows the fail-stop model: in the
// default detecting mode every applied fault surfaces as an InjectedFault
// exception at the barrier (real clusters detect crashes and lost messages
// via heartbeats/acks; here the injector doubles as the detector), and the
// recovery policies in recovery.hpp catch it, roll back, and resume. Each
// event fires at most once — after recovery, the re-executed rounds run
// clean, which is exactly what makes restored runs comparable bit-for-bit
// against uninterrupted ones.
//
// With detection off (`fail_stop=false`), crash/drop/duplicate faults are
// applied silently and the run continues on corrupted state — the
// "unprotected cluster" baseline the CLI uses to show divergence.
//
// The Byzantine verbs (flip/forge/garble-oracle) follow the same split:
// under fail_stop they apply and then throw ByzantineFault at the barrier
// (an omniscient detector, useful for the checkpoint-rollback policies);
// silent, they corrupt state and keep going — which is the honest Byzantine
// model, where detection belongs to authenticated messaging
// (mpc::TamperViolation) and the quarantine policy's attestation
// cross-check, not to the injector. tamper-ckpt events are applied in
// after_round to the bound Checkpointer's saved snapshot, so the injector is
// chained *after* it (the save must exist first); they never throw — the
// wire format's checksum is their detector, at restore or audit time.
#pragma once

#include <optional>
#include <stdexcept>
#include <vector>

#include "fault/fault_plan.hpp"
#include "mpc/simulation.hpp"

namespace mpch::fault {

class Checkpointer;

/// Base of all injected faults; carries the event for provenance.
class InjectedFault : public std::runtime_error {
 public:
  InjectedFault(FaultEvent event, const std::string& what)
      : std::runtime_error(what), event_(event) {}
  const FaultEvent& event() const { return event_; }

 private:
  FaultEvent event_;
};

class MachineCrash : public InjectedFault {
 public:
  using InjectedFault::InjectedFault;
};

class MessageFault : public InjectedFault {
 public:
  using InjectedFault::InjectedFault;
};

class SimulationKilled : public InjectedFault {
 public:
  using InjectedFault::InjectedFault;
};

/// A Byzantine value fault (flip/forge/garble) applied in fail_stop mode.
class ByzantineFault : public InjectedFault {
 public:
  using InjectedFault::InjectedFault;
};

class FaultInjector : public mpc::RoundObserver {
 public:
  explicit FaultInjector(FaultPlan plan, bool fail_stop = true);

  /// Target for garble-oracle events. Unbound (the default), such events
  /// fire as no-ops — plain-model runs have no oracle to corrupt.
  void bind_oracle(hash::LazyRandomOracle* oracle) { oracle_ = oracle; }
  /// Target for tamper-ckpt events: the Checkpointer whose saved snapshot
  /// they flip a bit of. Unbound, such events fire as no-ops.
  void bind_checkpointer(Checkpointer* checkpointer) { checkpointer_ = checkpointer; }

  // RoundObserver hooks (see the file comment for the detection model).
  void before_round(std::uint64_t round) override;
  bool machine_runs(std::uint64_t round, std::uint64_t machine) override;
  void after_merge(std::uint64_t round,
                   std::vector<std::vector<mpc::Message>>& next_inboxes) override;
  void after_round(const mpc::RoundSnapshot& snapshot) override;

  /// Events that have fired so far (in firing order), for cost reports.
  const std::vector<FaultEvent>& fired() const { return fired_; }
  std::uint64_t faults_fired() const { return fired_.size(); }
  /// Events that can never fire anymore because their round has passed
  /// without a match (e.g. drop index beyond the inbox) are still counted in
  /// fired(); events whose round was never reached are pending.
  std::uint64_t events_planned() const { return plan_.events.size(); }

 private:
  FaultPlan plan_;
  std::vector<bool> consumed_;  ///< one-shot latch per plan event
  bool fail_stop_;
  hash::LazyRandomOracle* oracle_ = nullptr;  ///< garble-oracle target
  Checkpointer* checkpointer_ = nullptr;      ///< tamper-ckpt target
  std::optional<FaultEvent> pending_crash_;  ///< thrown at the next barrier
  std::vector<FaultEvent> fired_;
};

}  // namespace mpch::fault
