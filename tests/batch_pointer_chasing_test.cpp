#include "strategies/batch_pointer_chasing.hpp"

#include <gtest/gtest.h>

#include "core/line.hpp"
#include "hash/random_oracle.hpp"
#include "strategies/pointer_chasing.hpp"
#include "util/rng.hpp"

namespace mpch::strategies {
namespace {

core::LineParams params(std::uint64_t w = 256) {
  return core::LineParams::make(64, 16, 8, w);
}

struct Batch {
  core::LineParams p;
  std::shared_ptr<hash::LazyRandomOracle> oracle;
  std::vector<core::LineInput> inputs;
  std::vector<util::BitString> expected;

  Batch(std::uint64_t w, std::uint64_t k, std::uint64_t seed) : p(params(w)) {
    oracle = std::make_shared<hash::LazyRandomOracle>(p.n, p.n, seed);
    core::LineFunction f(p);
    for (std::uint64_t i = 0; i < k; ++i) {
      util::Rng rng(seed * 100 + i);
      inputs.push_back(core::LineInput::random(p, rng));
      expected.push_back(f.evaluate(*oracle, inputs.back()));
    }
  }
};

mpc::MpcRunResult run_batch(Batch& b, std::uint64_t m, std::uint64_t k) {
  BatchPointerChasingStrategy strat(b.p, OwnershipPlan::round_robin(b.p, m), k);
  mpc::MpcConfig c;
  c.machines = m;
  c.local_memory_bits = strat.required_local_memory();
  c.query_budget = 1 << 20;
  c.max_rounds = 20000;  // fail fast on regressions instead of spinning
  mpc::MpcSimulation sim(c, b.oracle);
  return sim.run(strat, strat.make_initial_memory(b.inputs));
}

TEST(BatchPointerChasing, SingleInstanceMatchesLine) {
  Batch b(128, 1, 1);
  auto result = run_batch(b, 4, 1);
  ASSERT_TRUE(result.completed);
  auto answers = BatchPointerChasingStrategy::parse_outputs(b.p, result.output, 1);
  EXPECT_EQ(answers[0], b.expected[0]);
}

TEST(BatchPointerChasing, AllInstancesCorrect) {
  const std::uint64_t k = 5;
  Batch b(128, k, 2);
  auto result = run_batch(b, 4, k);
  ASSERT_TRUE(result.completed);
  auto answers = BatchPointerChasingStrategy::parse_outputs(b.p, result.output, k);
  for (std::uint64_t i = 0; i < k; ++i) EXPECT_EQ(answers[i], b.expected[i]) << i;
}

TEST(BatchPointerChasing, ThroughputScalesButLatencyDoesNot) {
  // k chains batched take barely more rounds than one chain — far below the
  // k-fold sequential cost. That is the throughput/latency split: the
  // theorem bounds latency only.
  const std::uint64_t m = 4, w = 512;
  Batch b1(w, 1, 3);
  auto r1 = run_batch(b1, m, 1);
  ASSERT_TRUE(r1.completed);

  const std::uint64_t k = 8;
  Batch bk(w, k, 3);
  auto rk = run_batch(bk, m, k);
  ASSERT_TRUE(rk.completed);
  auto answers = BatchPointerChasingStrategy::parse_outputs(bk.p, rk.output, k);
  for (std::uint64_t i = 0; i < k; ++i) EXPECT_EQ(answers[i], bk.expected[i]) << i;

  EXPECT_LT(rk.rounds_used, 2 * r1.rounds_used);          // ~flat in k
  EXPECT_LT(rk.rounds_used * 3, k * r1.rounds_used);      // >> cheaper than sequential
}

TEST(BatchPointerChasing, HonestQueryCountIsKTimesW) {
  const std::uint64_t k = 3, w = 128;
  Batch b(w, k, 4);
  auto result = run_batch(b, 4, k);
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.trace.total_oracle_queries(), k * w);
}

TEST(BatchPointerChasing, RejectsBadInstanceCounts) {
  core::LineParams p = params();
  EXPECT_THROW(BatchPointerChasingStrategy(p, OwnershipPlan::round_robin(p, 2), 0),
               std::invalid_argument);
  BatchPointerChasingStrategy strat(p, OwnershipPlan::round_robin(p, 2), 2);
  util::Rng rng(1);
  std::vector<core::LineInput> one = {core::LineInput::random(p, rng)};
  EXPECT_THROW(strat.make_initial_memory(one), std::invalid_argument);
}

TEST(BatchPointerChasing, TruncatedBlockRecordThrows) {
  // The record's block count sizes it before anything is decoded; a share
  // cut short of that size must still be refused, not read past its end.
  const std::uint64_t k = 2;
  Batch b(128, k, 5);
  BatchPointerChasingStrategy strat(b.p, OwnershipPlan::round_robin(b.p, 4), k);
  mpc::MpcConfig c;
  c.machines = 4;
  c.local_memory_bits = strat.required_local_memory();
  c.query_budget = 1 << 20;
  c.max_rounds = 20000;
  std::vector<util::BitString> shares = strat.make_initial_memory(b.inputs);
  shares[1].truncate(shares[1].size() - 1);
  mpc::MpcSimulation sim(c, b.oracle);
  EXPECT_THROW(sim.run(strat, shares), std::out_of_range);
}

}  // namespace
}  // namespace mpch::strategies
