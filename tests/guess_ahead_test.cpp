#include "strategies/guess_ahead.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "stats/estimator.hpp"

namespace mpch::strategies {
namespace {

GuessAheadConfig config(std::uint64_t u, std::uint64_t guesses, bool simline) {
  GuessAheadConfig c;
  c.params = core::LineParams::make(3 * u + 16, u, 8, 16);
  c.guesses_per_trial = guesses;
  c.simline = simline;
  return c;
}

TEST(GuessAhead, Deterministic) {
  GuessAheadConfig c = config(6, 4, false);
  auto a = run_guess_ahead_trials(c, 42, 200);
  auto b = run_guess_ahead_trials(c, 42, 200);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.trials, 200u);
}

TEST(GuessAhead, PredictedRateFormula) {
  core::LineParams p = core::LineParams::make(40, 8, 8, 16);
  EXPECT_DOUBLE_EQ(guess_ahead_predicted_rate(p, 1), 1.0 / 256);
  EXPECT_DOUBLE_EQ(guess_ahead_predicted_rate(p, 128), 0.5);
  EXPECT_DOUBLE_EQ(guess_ahead_predicted_rate(p, 256), 1.0);
  EXPECT_DOUBLE_EQ(guess_ahead_predicted_rate(p, 10000), 1.0);
}

TEST(GuessAhead, MeasuredRateMatchesLemma33Bound) {
  // u = 4: single-guess hit rate should be exactly 2^-4 = 1/16 up to noise.
  GuessAheadConfig c = config(4, 1, false);
  auto outcome = run_guess_ahead_trials(c, 7, 20000);
  stats::Proportion prop{outcome.hits, outcome.trials};
  EXPECT_TRUE(prop.contains(1.0 / 16))
      << "rate=" << prop.rate() << " ci=[" << prop.wilson_low() << ", " << prop.wilson_high()
      << "]";
}

TEST(GuessAhead, SimLineVariantMatchesLemmaA7Bound) {
  GuessAheadConfig c = config(4, 1, true);
  auto outcome = run_guess_ahead_trials(c, 8, 20000);
  stats::Proportion prop{outcome.hits, outcome.trials};
  EXPECT_TRUE(prop.contains(1.0 / 16)) << prop.rate();
}

TEST(GuessAhead, RateScalesLinearlyInGuesses) {
  // Without-replacement guessing: rate = guesses / 2^u exactly in
  // expectation.
  GuessAheadConfig c1 = config(5, 1, false);
  GuessAheadConfig c8 = config(5, 8, false);
  auto o1 = run_guess_ahead_trials(c1, 9, 20000);
  auto o8 = run_guess_ahead_trials(c8, 9, 20000);
  stats::Proportion p1{o1.hits, o1.trials}, p8{o8.hits, o8.trials};
  EXPECT_TRUE(p1.contains(1.0 / 32)) << p1.rate();
  EXPECT_TRUE(p8.contains(8.0 / 32)) << p8.rate();
}

TEST(GuessAhead, FullEnumerationAlwaysHits) {
  GuessAheadConfig c = config(4, 16, false);
  auto outcome = run_guess_ahead_trials(c, 10, 500);
  EXPECT_EQ(outcome.hits, outcome.trials);
}

TEST(GuessAhead, LargerUDecaysExponentially) {
  // Hit rates across u = 3, 5, 7 with one guess: each step of 2 in u cuts
  // the rate by ~4x.
  std::uint64_t trials = 60000;
  auto r3 = run_guess_ahead_trials(config(3, 1, false), 11, trials);
  auto r5 = run_guess_ahead_trials(config(5, 1, false), 12, trials);
  auto r7 = run_guess_ahead_trials(config(7, 1, false), 13, trials);
  stats::Proportion p3{r3.hits, trials}, p5{r5.hits, trials}, p7{r7.hits, trials};
  EXPECT_TRUE(p3.contains(1.0 / 8)) << p3.rate();
  EXPECT_TRUE(p5.contains(1.0 / 32)) << p5.rate();
  EXPECT_TRUE(p7.contains(1.0 / 128)) << p7.rate();
}

TEST(GuessAhead, FixedTargetNodeWorksToo) {
  GuessAheadConfig c = config(4, 1, false);
  c.target_node = 5;
  auto outcome = run_guess_ahead_trials(c, 14, 10000);
  stats::Proportion prop{outcome.hits, outcome.trials};
  EXPECT_TRUE(prop.contains(1.0 / 16)) << prop.rate();
}

TEST(GuessAhead, RejectsDegenerateChain) {
  GuessAheadConfig c = config(4, 1, false);
  c.params.w = 1;
  EXPECT_THROW(run_guess_ahead_trials(c, 1, 1), std::invalid_argument);
}

TEST(GuessAhead, RejectsTargetBeyondTheChain) {
  // Every trial throws inside run_boolean_trials' pool; the first one's
  // exception reaches the caller.
  GuessAheadConfig c = config(4, 1, false);
  c.target_node = c.params.w + 1;
  EXPECT_THROW(run_guess_ahead_trials(c, 1, 1000), std::invalid_argument);
  c.simline = true;
  EXPECT_THROW(run_guess_ahead_trials(c, 1, 1000), std::invalid_argument);
}

TEST(GuessAhead, HitsArePinnedToTheSerialLoop) {
  // Recorded from the one-thread trial loop that preceded
  // run_boolean_trials: trial t is seeded by the t-th next_u64() of
  // Rng(seed), so the counts do not depend on the pool. The first row
  // crosses a seed batch boundary.
  struct Row {
    bool simline;
    std::uint64_t target_node, guesses, seed, trials, hits;
  };
  const Row rows[] = {{false, 0, 1, 101, 65636, 1025},
                      {false, 5, 16, 102, 3000, 755},
                      {true, 0, 16, 103, 3000, 713},
                      {true, 7, 1, 104, 3000, 45}};
  for (const Row& r : rows) {
    GuessAheadConfig c = config(6, r.guesses, r.simline);
    c.target_node = r.target_node;
    auto outcome = run_guess_ahead_trials(c, r.seed, r.trials);
    EXPECT_EQ(outcome.trials, r.trials);
    EXPECT_EQ(outcome.hits, r.hits) << "seed " << r.seed;
  }
}

}  // namespace
}  // namespace mpch::strategies
