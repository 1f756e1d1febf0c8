#include "fault/injector.hpp"

#include "fault/recovery.hpp"

namespace mpch::fault {

namespace {

std::string detected_at_barrier(const FaultEvent& ev, std::uint64_t round) {
  return "injected fault: " + ev.describe() + " (detected at the round " +
         std::to_string(round) + " barrier)";
}

/// Applies a drop/dup/flip/forge event to the merged deliveries. Returns
/// false when the plan names a delivery or bit that does not exist this
/// round: the event fires as a no-op, with nothing to detect.
bool tamper_delivery(const FaultEvent& ev, std::vector<std::vector<mpc::Message>>& inboxes) {
  if (ev.machine >= inboxes.size()) return false;
  auto& inbox = inboxes[ev.machine];
  if (ev.kind == FaultKind::FlipBit) {
    // ev.index addresses a flat bit offset across the receiver's
    // concatenated payloads; walk to the owning message.
    std::uint64_t offset = ev.index;
    for (auto& msg : inbox) {
      if (offset < msg.payload.size()) {
        msg.payload.set(offset, !msg.payload.get(offset));
        return true;
      }
      offset -= msg.payload.size();
    }
    return false;
  }
  if (ev.index >= inbox.size()) return false;
  if (ev.kind == FaultKind::DropMessage) {
    inbox.erase(inbox.begin() + static_cast<std::ptrdiff_t>(ev.index));
  } else if (ev.kind == FaultKind::DuplicateMessage) {
    inbox.push_back(inbox[ev.index]);  // duplicate delivery, appended
  } else {
    inbox[ev.index].from = ev.aux;  // forge: spoof the sender
  }
  return true;
}

}  // namespace

FaultInjector::FaultInjector(FaultPlan plan, bool fail_stop)
    : plan_(std::move(plan)), consumed_(plan_.events.size(), false), fail_stop_(fail_stop) {}

void FaultInjector::before_round(std::uint64_t round) {
  for (std::size_t i = 0; i < plan_.events.size(); ++i) {
    const FaultEvent& ev = plan_.events[i];
    if (consumed_[i] || ev.round != round) continue;
    if (ev.kind == FaultKind::KillSimulation) {
      consumed_[i] = true;
      fired_.push_back(ev);
      // A kill is never silent — there is no state left to continue on.
      throw SimulationKilled(ev, "injected fault: " + ev.describe());
    }
    if (ev.kind == FaultKind::GarbleOracle) {
      consumed_[i] = true;
      fired_.push_back(ev);
      // The memo is shared state, corrupted before the round's machines
      // query it. Unbound oracle or out-of-range entry: fired, no-op.
      if (oracle_ == nullptr || !oracle_->corrupt_memo_entry(ev.index)) continue;
      if (fail_stop_) {
        throw ByzantineFault(ev, "injected fault: " + ev.describe() +
                                     " (detected before round " + std::to_string(round) + ")");
      }
    }
  }
}

bool FaultInjector::machine_runs(std::uint64_t round, std::uint64_t machine) {
  for (std::size_t i = 0; i < plan_.events.size(); ++i) {
    const FaultEvent& ev = plan_.events[i];
    if (consumed_[i] || ev.kind != FaultKind::CrashMachine || ev.round != round ||
        ev.machine != machine) {
      continue;
    }
    consumed_[i] = true;
    fired_.push_back(ev);
    if (fail_stop_) pending_crash_ = ev;  // detected at the round barrier
    return false;
  }
  return true;
}

void FaultInjector::after_merge(std::uint64_t round,
                                std::vector<std::vector<mpc::Message>>& next_inboxes) {
  // Crash detection first: the crash happened in phase A of this round, so
  // it is the earliest fault of the barrier and must win over message
  // tampering scheduled for the same round.
  if (pending_crash_.has_value()) {
    FaultEvent ev = *pending_crash_;
    pending_crash_.reset();
    throw MachineCrash(ev, detected_at_barrier(ev, round));
  }

  for (std::size_t i = 0; i < plan_.events.size(); ++i) {
    const FaultEvent& ev = plan_.events[i];
    const bool delivery = ev.kind == FaultKind::DropMessage ||
                          ev.kind == FaultKind::DuplicateMessage ||
                          ev.kind == FaultKind::FlipBit || ev.kind == FaultKind::ForgeMessage;
    if (consumed_[i] || ev.round != round || !delivery) continue;
    consumed_[i] = true;
    fired_.push_back(ev);
    if (!tamper_delivery(ev, next_inboxes) || !fail_stop_) continue;
    if (ev.kind == FaultKind::DropMessage || ev.kind == FaultKind::DuplicateMessage) {
      throw MessageFault(ev, detected_at_barrier(ev, round));
    }
    throw ByzantineFault(ev, detected_at_barrier(ev, round));
  }
}

void FaultInjector::after_round(const mpc::RoundSnapshot& snapshot) {
  for (std::size_t i = 0; i < plan_.events.size(); ++i) {
    const FaultEvent& ev = plan_.events[i];
    if (consumed_[i] || ev.kind != FaultKind::TamperCheckpoint || ev.round != snapshot.round) {
      continue;
    }
    consumed_[i] = true;
    fired_.push_back(ev);
    if (checkpointer_ != nullptr) checkpointer_->corrupt_latest_encoded(ev.index);
  }
}

}  // namespace mpch::fault
