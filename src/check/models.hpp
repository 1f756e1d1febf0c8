// models.hpp — the three protocol models and the seeded-mutation registry.
//
// Each model wraps a *production* transition core behind the Model
// interface (model.hpp):
//
//   inbox       transport/wire.hpp InboxAssembler — per-sender FIFO streams
//               delivered in any interleaving, plus re-deliveries from the
//               adversary's budget; the barrier invariant is the exactly-once
//               canonical (sender, seq) inbox order every backend promises.
//   recovery    fault/recovery_core.hpp snapshot_due + plan_restart — an
//               abstract run interleaving commits with budgeted pre-/in-
//               round faults; invariants are transcript equivalence (no
//               committed round may come from a poisoned execution) and
//               lost-round accounting matching the spec.
//   quarantine  fault/recovery_core.hpp QuarantineCore — the adversary
//               chooses each attempt's verdict (clean, divergent with or
//               without a localised culprit, killed) within its budget; a
//               shadow transcription of the documented policy steps
//               alongside, and any divergence in action or state is a
//               violation. Explorer-level livelock detection covers
//               termination.
//
// Mutations are seeded protocol bugs — each flips one options field on the
// real core (wire.hpp / recovery_core.hpp) — used by
// `mpch-model --mutation-matrix` to prove the checker can actually find the
// bug class each gate exists to stop. Production code never sets these.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "check/model.hpp"

namespace mpch::check {

/// One seeded protocol bug the checker must produce a counterexample for.
struct MutationSpec {
  std::string name;        ///< CLI token (`--mutate <name>`)
  std::string protocol;    ///< the model that exposes it
  std::string description; ///< which real gate the mutation disables
};

/// The three protocol names, in CLI order.
const std::vector<std::string>& protocol_names();

/// Every seeded mutation, grouped by protocol.
const std::vector<MutationSpec>& mutation_registry();

/// Build a model. `mutation` is a registry name or "none"; throws
/// std::invalid_argument for an unknown protocol, an unknown mutation, or a
/// mutation that belongs to a different protocol.
std::unique_ptr<Model> make_model(const std::string& protocol, const ModelBounds& bounds,
                                  const std::string& mutation = "none");

/// Per-protocol factories (make_model dispatches here; tests use them
/// directly). Each throws std::invalid_argument for a mutation it does not
/// own.
std::unique_ptr<Model> make_inbox_model(const ModelBounds& bounds, const std::string& mutation);
std::unique_ptr<Model> make_recovery_model(const ModelBounds& bounds,
                                           const std::string& mutation);
std::unique_ptr<Model> make_quarantine_model(const ModelBounds& bounds,
                                             const std::string& mutation);

}  // namespace mpch::check
