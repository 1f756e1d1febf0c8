// catalog.hpp — the built-in reduction library over the in-tree strategies.
//
// The catalog encodes, as machine-checked reductions, the transfer facts the
// repo's experiments lean on:
//
//   * the authenticated lift: every strategy's MAC'd variant inherits the
//     plain envelope through with_authentication(64), with the tag bits
//     priced against theory::bounds (the Lemma 3.6 advance cap moves, the
//     Lemma 3.2 round floor does not — authentication cannot buy rounds);
//   * RAM-emulation related across (s, m) points: regrouping 8 machines
//     onto 4 (machine_regroup), and emulating a 2×-larger program on the
//     same machines (space_scale + round_stretch) — the Theorem 4
//     any-RAM-program-is-an-MPC-protocol construction is a *family* of
//     specs, and these reductions pin how its envelope moves through it;
//   * a Charikar–Ma–Tan-style query-budget transfer: the k-instance batch
//     strategy fits inside k× the queries (oracle_reindex) and a constant
//     space/traffic factor of the single-instance protocol — the direct-sum
//     shape their query-to-MPC lower-bound transfer rides on.
//
// Every entry carries a cross-check runner that executes the *target*
// strategy instrumented, so `mpch-reduce --catalog --cross-check` proves
// observed(target) <= declared(target) <= T(source) end to end. The broken
// entries are the checker's own self-check (mpch-model's mutation-matrix
// idiom): deliberately wrong claims that must each be refuted with a
// distinct diagnostic.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "mpc/simulation.hpp"
#include "reduce/checker.hpp"

namespace mpch::reduce {

struct CatalogEntry {
  Reduction reduction;
  std::string rationale;  ///< paper tie-in, printed by --catalog
  /// Theory-side round floor for the source problem (0 = not applicable):
  /// the target must declare at least this many rounds or the claim beats
  /// the paper's lower bound.
  std::uint64_t floor_rounds = 0;
  /// Execute the target strategy instrumented for --cross-check; fills
  /// *config with the MpcConfig the run used.
  std::function<mpc::MpcRunResult(mpc::MpcConfig*)> run_target;
};

/// A deliberately wrong claim the checker must refute, with the violation
/// kind its first diagnostic must carry.
struct BrokenEntry {
  Reduction reduction;
  analysis::ViolationKind expected;
  std::string why;
};

struct BuiltinCatalog {
  SpecCatalog specs;
  std::vector<CatalogEntry> entries;
  std::vector<BrokenEntry> broken;
};

/// Cross-check runner over the named serve scenario: the strategy under its
/// scenario config, optionally MAC-authenticated through
/// serve::apply_run_options (so the runtime meter has the same tag headroom
/// serve grants).
std::function<mpc::MpcRunResult(mpc::MpcConfig*)> scenario_runner(const std::string& name,
                                                                  std::uint64_t seed,
                                                                  bool authenticate);

/// Build the library. `seed` feeds the scenario inputs the cross-check
/// runners execute (the specs themselves are seed-independent).
BuiltinCatalog build_builtin_catalog(std::uint64_t seed);

}  // namespace mpch::reduce
