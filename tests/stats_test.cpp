#include "stats/estimator.hpp"
#include "stats/trials.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <string>

#include "util/rng.hpp"

namespace mpch::stats {
namespace {

TEST(Proportion, RateAndDegenerateCases) {
  Proportion p{5, 20};
  EXPECT_DOUBLE_EQ(p.rate(), 0.25);
  Proportion empty{0, 0};
  EXPECT_DOUBLE_EQ(empty.rate(), 0.0);
  EXPECT_DOUBLE_EQ(empty.wilson_low(), 0.0);
  EXPECT_DOUBLE_EQ(empty.wilson_high(), 1.0);
}

TEST(Proportion, WilsonIntervalBracketsRate) {
  Proportion p{50, 1000};
  EXPECT_LT(p.wilson_low(), p.rate());
  EXPECT_GT(p.wilson_high(), p.rate());
  EXPECT_GE(p.wilson_low(), 0.0);
  EXPECT_LE(p.wilson_high(), 1.0);
  EXPECT_TRUE(p.contains(0.05));
  EXPECT_FALSE(p.contains(0.2));
}

TEST(Proportion, IntervalNarrowsWithTrials) {
  Proportion small{5, 100}, large{500, 10000};
  EXPECT_GT(small.wilson_high() - small.wilson_low(),
            large.wilson_high() - large.wilson_low());
}

TEST(Proportion, ZeroSuccessesStillValid) {
  Proportion p{0, 1000};
  EXPECT_DOUBLE_EQ(p.wilson_low(), 0.0);
  EXPECT_GT(p.wilson_high(), 0.0);
  EXPECT_LT(p.wilson_high(), 0.01);
}

TEST(LinearFit, ExactLine) {
  LinearFit fit = fit_line({1, 2, 3, 4}, {3, 5, 7, 9});
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(LinearFit, NoisyLineSlopeRecovered) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 100; ++i) {
    xs.push_back(i);
    ys.push_back(-1.0 * i + 5 + ((i % 3) - 1) * 0.1);  // slope -1 + small noise
  }
  LinearFit fit = fit_line(xs, ys);
  EXPECT_NEAR(fit.slope, -1.0, 0.01);
  EXPECT_GT(fit.r_squared, 0.99);
}

TEST(LinearFit, Degenerate) {
  EXPECT_THROW(fit_line({1}, {2}), std::invalid_argument);
  EXPECT_THROW(fit_line({1, 1}, {2, 3}), std::invalid_argument);
  EXPECT_THROW(fit_line({1, 2}, {2}), std::invalid_argument);
}

TEST(RunningStats, WelfordMatchesDirect) {
  RunningStats s;
  std::vector<double> xs = {2, 4, 4, 4, 5, 5, 7, 9};
  for (double x : xs) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Histogram, BinsAndOverflow) {
  Histogram h(4);
  for (std::uint64_t v : {0ULL, 1ULL, 1ULL, 3ULL, 9ULL, 12ULL}) h.add(v);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(1), 2u);
  EXPECT_EQ(h.count(2), 0u);
  EXPECT_EQ(h.count(3), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.total(), 6u);
}

TEST(Histogram, TailProbability) {
  Histogram h(4);
  for (std::uint64_t v : {0ULL, 1ULL, 2ULL, 3ULL, 10ULL}) h.add(v);
  EXPECT_DOUBLE_EQ(h.tail_probability(1), 3.0 / 5.0);  // {2, 3, 10}
  EXPECT_DOUBLE_EQ(h.tail_probability(3), 1.0 / 5.0);  // {10}
  EXPECT_DOUBLE_EQ(h.tail_probability(0), 4.0 / 5.0);
}

TEST(Trials, BooleanDeterministicAcrossThreadCounts) {
  auto trial = [](std::uint64_t seed) { return util::Rng(seed).next_below(10) == 0; };
  util::ThreadPool pool1(1), pool4(4);
  Proportion a = run_boolean_trials(50000, 11, trial, &pool1);
  Proportion b = run_boolean_trials(50000, 11, trial, &pool4);
  EXPECT_EQ(a.successes, b.successes);
  EXPECT_EQ(a.trials, 50000u);
  EXPECT_TRUE(a.contains(0.1));
}

TEST(Trials, EqualsSerialLoopAtEveryPoolSizeAndBatchEdge) {
  // Trial t's seed is the t-th next_u64() of Rng(seed): run_boolean_trials
  // must see exactly the serial loop's seeds, once each, on any pool and
  // across every batch boundary. The seed multiset is compared by count, sum and sum of
  // squares (mod 2^64).
  auto trial = [](std::uint64_t s) { return util::Rng(s).next_below(7) < 2; };
  const std::uint64_t seed = 2024;
  for (std::size_t threads : {1, 2, 4, 8}) {
    util::ThreadPool pool(threads);
    for (std::uint64_t trials : {std::uint64_t{0}, std::uint64_t{1}, kTrialBatch - 1, kTrialBatch,
                                 kTrialBatch + 1, 3 * kTrialBatch + 7}) {
      util::Rng rng(seed);
      std::uint64_t serial_hits = 0, serial_sum = 0, serial_sq = 0;
      for (std::uint64_t t = 0; t < trials; ++t) {
        const std::uint64_t s = rng.next_u64();
        if (trial(s)) ++serial_hits;
        serial_sum += s;
        serial_sq += s * s;
      }
      std::atomic<std::uint64_t> count{0}, sum{0}, sq{0};
      Proportion p = run_boolean_trials(
          trials, seed,
          [&](std::uint64_t s) {
            count.fetch_add(1);
            sum.fetch_add(s);
            sq.fetch_add(s * s);
            return trial(s);
          },
          &pool);
      SCOPED_TRACE(std::to_string(threads) + " threads, " + std::to_string(trials) + " trials");
      EXPECT_EQ(p.trials, trials);
      EXPECT_EQ(p.successes, serial_hits);
      EXPECT_EQ(count.load(), trials);
      EXPECT_EQ(sum.load(), serial_sum);
      EXPECT_EQ(sq.load(), serial_sq);
    }
  }
}

TEST(Trials, DifferentSeedsDiffer) {
  auto trial = [](std::uint64_t seed) { return seed % 2 == 0; };
  Proportion a = run_boolean_trials(10000, 1, trial);
  Proportion b = run_boolean_trials(10000, 2, trial);
  EXPECT_NE(a.successes, b.successes);
}

}  // namespace
}  // namespace mpch::stats
