// explorer.hpp — bounded exhaustive schedule enumeration over a Model.
//
// The explorer owns the three jobs a systematic concurrency checker needs
// beyond the model itself:
//
//   * enumeration — depth-first search over every schedule of enabled
//     actions, backtracking by reset-and-replay (models are cheap to step;
//     keeping them copyable would be the expensive design);
//   * pruning — canonical-state convergence (a fingerprint already expanded
//     is not expanded again), sleep-set-lite pruning of commuting siblings
//     (Model::independent), and hard depth/state bounds;
//   * judgement — Model::violation() after every step, livelock detection
//     (a fingerprint repeating along the current path means the adversary
//     can loop forever — the quarantine-termination invariant), and a
//     confluence check over terminal states: every complete schedule must
//     end in the same fingerprint, which is the transport's claim that
//     delivery order cannot be observed (the determinism the paper's
//     simulation arguments lean on).
//
// A violation is returned as the exact schedule that reached it, shrunk by
// delta-debugging (drop one action, keep the drop when the violation still
// fires) to a locally-minimal counterexample that trace.hpp can persist and
// `mpch-model --replay` can re-run.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/model.hpp"

namespace mpch::check {

/// A stored schedule does not replay against the model it claims to drive:
/// an action key that is not enabled at its position. Distinct from
/// TraceError (trace.hpp), which is "the file is malformed" — this is "the
/// file is well-formed but lies about the protocol". Both are bad input.
class ReplayError : public std::invalid_argument {
 public:
  explicit ReplayError(const std::string& what) : std::invalid_argument(what) {}
};

struct ExplorerOptions {
  std::uint64_t max_depth = 64;      ///< schedule length ceiling
  std::uint64_t max_states = 100000; ///< distinct-state expansion ceiling
  bool prune_converged = true;       ///< fingerprint convergence pruning
  bool sleep_sets = true;            ///< prune commuting sibling orders
  bool detect_livelock = true;       ///< on-path fingerprint repeat = violation
  bool check_confluence = true;      ///< all terminal fingerprints must agree
  bool shrink = true;                ///< minimise counterexample schedules
};

/// A violating schedule: replaying `schedule` from reset() reproduces
/// `violation` at its final action.
struct Counterexample {
  std::vector<Action> schedule;
  std::string violation;
};

struct ExploreStats {
  std::uint64_t states_explored = 0;   ///< distinct fingerprints expanded
  std::uint64_t transitions = 0;       ///< apply() calls during the search
  std::uint64_t terminal_states = 0;   ///< complete schedules reached
  std::uint64_t pruned_converged = 0;  ///< revisits cut by fingerprint
  std::uint64_t pruned_sleep = 0;      ///< siblings cut by sleep sets
  std::uint64_t deepest = 0;           ///< longest schedule prefix explored
  bool depth_bound_hit = false;        ///< some schedule was truncated
  bool state_bound_hit = false;        ///< search stopped at max_states
  std::uint64_t terminal_fingerprints = 0;  ///< distinct end states seen
};

struct ExploreResult {
  ExploreStats stats;
  std::optional<Counterexample> counterexample;
  bool ok() const { return !counterexample.has_value(); }
};

/// The outcome of replaying one stored schedule (strictly: every key must be
/// enabled where the schedule uses it, or ReplayError).
struct ReplayOutcome {
  std::optional<std::string> violation;  ///< fired at `steps` if set
  std::uint64_t steps = 0;               ///< actions applied
};

class Explorer {
 public:
  explicit Explorer(ExplorerOptions options = {}) : options_(options) {}

  /// Enumerate schedules until a violation, a bound, or exhaustion. The
  /// confluence and livelock judgements honour the options; a confluence
  /// breach is reported as a counterexample on the second terminal schedule.
  ExploreResult run(Model& model) const;

  /// Replay a schedule from reset(), checking invariants after every step
  /// (including the livelock fingerprint check when enabled). Throws
  /// ReplayError on a key the model does not offer at that position.
  ReplayOutcome replay(Model& model, const std::vector<Action>& schedule) const;

  /// Delta-debug `schedule` to a locally-minimal violating schedule: drop
  /// single actions while any violation still fires, truncate at the firing
  /// step, repeat to fixpoint.
  Counterexample shrink(Model& model, Counterexample found) const;

 private:
  /// replay() that tolerates disabled keys (shrinking candidates are often
  /// invalid); nullopt = candidate does not replay.
  std::optional<ReplayOutcome> try_replay(Model& model,
                                          const std::vector<Action>& schedule) const;

  ExplorerOptions options_;
};

}  // namespace mpch::check
