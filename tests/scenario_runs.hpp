// scenario_runs.hpp — run a catalog scenario, clean or under a fault plan,
// and compare two runs.
//
// The determinism matrix and the fault suites build every strategy through
// serve::make_scenario, recover through ChaosHarness::run and compare every
// run through serve::artifact_mismatches: the catalog, policy dispatch and
// comparator the tools use.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>

#include "fault/fault_plan.hpp"
#include "fault/recovery.hpp"
#include "mpc/simulation.hpp"
#include "serve/scenario.hpp"

namespace mpch {

/// One finished run and the oracle it queried (null for plain-model runs).
/// Its field names match fault::ChaosResult and serve::JobResult, so
/// expect_identical takes any of the three.
struct Execution {
  mpc::MpcRunResult run;
  std::shared_ptr<hash::LazyRandomOracle> oracle;
};

/// The catalog's `name` at `seed`, with the run options of one execution.
inline serve::Scenario catalog(const std::string& name, std::uint64_t seed,
                               std::uint64_t threads, bool authenticate = false,
                               transport::TransportKind kind = transport::TransportKind::kInProcess,
                               std::uint64_t processes = 0) {
  serve::Scenario sc = serve::make_scenario(name, seed, threads);
  serve::apply_run_options(&sc, kind, processes, authenticate);
  return sc;
}

/// Runs `sc` once on a fresh oracle, with no observer.
inline Execution run_once(const serve::Scenario& sc) {
  Execution r;
  r.oracle = sc.make_oracle();
  mpc::MpcSimulation sim(sc.config, r.oracle);
  r.run = sim.run(*sc.algo, sc.initial);
  return r;
}

/// A fault suite's fault-free reference: `sc` run once, which must complete.
inline Execution run_clean(const serve::Scenario& sc) {
  Execution clean = run_once(sc);
  EXPECT_TRUE(clean.run.completed);
  return clean;
}

/// Quarantine's default periodic-checkpoint cadence, as ChaosHarness::run's
/// `every` for calls that keep it.
inline constexpr std::uint64_t kQuarantineEvery = fault::QuarantineConfig{}.checkpoint_every;

/// Runs `plan` on `sc` under the recovery policy `policy`.
inline fault::ChaosResult run_chaos(const serve::Scenario& sc, std::string_view policy,
                                    const std::string& plan, std::uint64_t every,
                                    const fault::QuarantineConfig& qc = {},
                                    const std::string& checkpoint_file = "") {
  fault::ChaosHarness harness(sc.config, [&sc] { return sc.make_oracle(); });
  return harness.run(policy, *sc.algo, sc.initial, fault::FaultPlan::parse(plan), every, qc,
                     checkpoint_file);
}

/// One gtest failure per artifact that differs between the two runs.
template <typename Ref, typename Got>
void expect_identical(const Ref& ref, const Got& got) {
  for (const std::string& m :
       serve::artifact_mismatches(ref.run, ref.oracle.get(), got.run, got.oracle.get())) {
    ADD_FAILURE() << m;
  }
}

}  // namespace mpch
