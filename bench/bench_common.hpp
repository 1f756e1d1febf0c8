// bench_common.hpp — shared helpers for the experiment binaries.
#pragma once

#include <algorithm>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/input.hpp"
#include "core/params.hpp"
#include "hash/random_oracle.hpp"
#include "mpc/simulation.hpp"
#include "util/table.hpp"

namespace mpch::bench {

inline void header(const std::string& id, const std::string& paper_object,
                   const std::string& claim) {
  std::cout << "\n==================================================================\n"
            << id << " — " << paper_object << "\n"
            << "claim: " << claim << "\n"
            << "==================================================================\n";
}

/// The sample at quantile `q` in [0, 1] (the element at index
/// floor(q * size) of the sorted samples, clamped); `samples` is non-empty.
inline double percentile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  const std::size_t idx = std::min(
      samples.size() - 1, static_cast<std::size_t>(q * static_cast<double>(samples.size())));
  return samples[idx];
}

/// Run one MPC strategy to completion and return the result; wires up the
/// standard config from the strategy's own memory requirement.
template <typename Strategy>
mpc::MpcRunResult run_strategy(Strategy& strategy, const core::LineInput& input,
                               std::shared_ptr<hash::RandomOracle> oracle, std::uint64_t machines,
                               std::uint64_t query_budget = 1ULL << 20,
                               std::uint64_t max_rounds = 1ULL << 22) {
  mpc::MpcConfig c;
  c.machines = machines;
  c.local_memory_bits = strategy.required_local_memory();
  c.query_budget = query_budget;
  c.max_rounds = max_rounds;
  c.tape_seed = 0xBE7C;
  mpc::MpcSimulation sim(c, std::move(oracle));
  return sim.run(strategy, strategy.make_initial_memory(input));
}

}  // namespace mpch::bench
