#include "stats/trials.hpp"

#include <algorithm>
#include <atomic>
#include <vector>

#include "util/rng.hpp"

namespace mpch::stats {

Proportion run_boolean_trials(std::uint64_t trials, std::uint64_t seed,
                              const std::function<bool(std::uint64_t)>& trial,
                              util::ThreadPool* pool) {
  if (pool == nullptr) pool = &util::global_pool();
  util::Rng rng(seed);
  std::vector<std::uint64_t> seeds(std::min(trials, kTrialBatch));
  std::atomic<std::uint64_t> successes{0};
  for (std::uint64_t done = 0; done < trials; done += seeds.size()) {
    seeds.resize(std::min(trials - done, kTrialBatch));
    for (auto& s : seeds) s = rng.next_u64();
    pool->parallel_chunks(seeds.size(), [&](std::size_t, std::size_t begin, std::size_t end) {
      std::uint64_t hits = 0;
      for (std::size_t t = begin; t < end; ++t) hits += trial(seeds[t]) ? 1 : 0;
      successes.fetch_add(hits);
    });
  }
  return {successes.load(), trials};
}

}  // namespace mpch::stats
