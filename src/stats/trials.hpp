// trials.hpp — deterministic, thread-parallel Monte-Carlo trials.
//
// Trial t gets the t-th next_u64() of Rng(seed) as its seed. The seeds are
// drawn serially, kTrialBatch at a time, and each batch is one
// ThreadPool::parallel_chunks call, so the hit count equals a serial loop's
// at any thread count.
#pragma once

#include <cstdint>
#include <functional>

#include "stats/estimator.hpp"
#include "util/thread_pool.hpp"

namespace mpch::stats {

/// Seeds drawn (and trials run) per parallel_chunks call.
inline constexpr std::uint64_t kTrialBatch = 1 << 16;

/// Count the trials t in [0, trials) for which `trial(seed_t)` is true.
/// `trial` runs concurrently, so it must not write shared state. A throwing
/// trial ends the run with the exception of its batch's lowest chunk.
/// `pool == nullptr` means util::global_pool().
Proportion run_boolean_trials(std::uint64_t trials, std::uint64_t seed,
                              const std::function<bool(std::uint64_t)>& trial,
                              util::ThreadPool* pool = nullptr);

}  // namespace mpch::stats
