#include "core/line.hpp"

#include <gtest/gtest.h>

#include "core/simline.hpp"
#include "hash/random_oracle.hpp"
#include "util/rng.hpp"

namespace mpch::core {
namespace {

using util::BitString;

LineParams params() { return LineParams::make(64, 16, 8, 64); }

TEST(LineFunction, DeterministicGivenOracleAndInput) {
  LineParams p = params();
  LineFunction f(p);
  hash::LazyRandomOracle oracle(p.n, p.n, 1);
  util::Rng rng(2);
  LineInput input = LineInput::random(p, rng);
  BitString out1 = f.evaluate(oracle, input);
  BitString out2 = f.evaluate(oracle, input);
  EXPECT_EQ(out1, out2);
  EXPECT_EQ(out1.size(), p.n);
}

TEST(LineFunction, ChainAgreesWithEvaluate) {
  LineParams p = params();
  LineFunction f(p);
  hash::LazyRandomOracle oracle(p.n, p.n, 3);
  util::Rng rng(4);
  LineInput input = LineInput::random(p, rng);
  LineChain chain = f.evaluate_chain(oracle, input);
  EXPECT_EQ(chain.nodes.size(), p.w);
  EXPECT_EQ(chain.output, f.evaluate(oracle, input));
}

TEST(LineFunction, ChainStructureIsCorrect) {
  LineParams p = params();
  LineFunction f(p);
  LineCodec codec(p);
  hash::LazyRandomOracle oracle(p.n, p.n, 5);
  util::Rng rng(6);
  LineInput input = LineInput::random(p, rng);
  LineChain chain = f.evaluate_chain(oracle, input);

  // Node 1: ℓ_1 = 1, r_1 = 0^u.
  EXPECT_EQ(chain.nodes[0].index, 1u);
  EXPECT_EQ(chain.nodes[0].ell, 1u);
  EXPECT_EQ(chain.nodes[0].r, BitString(p.u));

  // Every node's query embeds (i, x_{ℓ_i}, r_i) and each answer drives the
  // next node.
  for (std::size_t i = 0; i < chain.nodes.size(); ++i) {
    const auto& node = chain.nodes[i];
    LineQuery parsed = codec.decode_query(node.query);
    EXPECT_EQ(parsed.index, node.index);
    EXPECT_EQ(parsed.x, input.block(node.ell));
    EXPECT_EQ(parsed.r, node.r);
    if (i + 1 < chain.nodes.size()) {
      LineAnswer a = codec.decode_answer(node.answer);
      EXPECT_EQ(chain.nodes[i + 1].ell, a.ell);
      EXPECT_EQ(chain.nodes[i + 1].r, a.r);
      EXPECT_EQ(chain.nodes[i + 1].index, node.index + 1);
    }
  }
}

TEST(LineFunction, DifferentOraclesGiveDifferentOutputs) {
  LineParams p = params();
  LineFunction f(p);
  hash::LazyRandomOracle o1(p.n, p.n, 10), o2(p.n, p.n, 11);
  util::Rng rng(12);
  LineInput input = LineInput::random(p, rng);
  EXPECT_NE(f.evaluate(o1, input), f.evaluate(o2, input));
}

TEST(LineFunction, SensitiveToVisitedBlockChange) {
  LineParams p = params();
  LineFunction f(p);
  hash::LazyRandomOracle oracle(p.n, p.n, 20);
  util::Rng rng(21);
  LineInput input = LineInput::random(p, rng);
  LineChain chain = f.evaluate_chain(oracle, input);

  // Flip one bit of a block the walk actually visits: output must change.
  std::uint64_t visited = chain.nodes[p.w / 2].ell;
  BitString bits = input.bits();
  bits.set((visited - 1) * p.u, !bits.get((visited - 1) * p.u));
  LineInput mutated(p, bits);
  EXPECT_NE(f.evaluate(oracle, mutated), chain.output);
}

TEST(LineFunction, InsensitiveToUnvisitedBlockChange) {
  LineParams p = params();
  LineFunction f(p);
  hash::LazyRandomOracle oracle(p.n, p.n, 30);
  util::Rng rng(31);
  LineInput input = LineInput::random(p, rng);
  LineChain chain = f.evaluate_chain(oracle, input);

  std::vector<bool> visited(p.v + 1, false);
  for (const auto& node : chain.nodes) visited[node.ell] = true;
  std::uint64_t untouched = 0;
  for (std::uint64_t b = 1; b <= p.v; ++b) {
    if (!visited[b]) {
      untouched = b;
      break;
    }
  }
  if (untouched == 0) GTEST_SKIP() << "walk visited every block";
  BitString bits = input.bits();
  bits.set((untouched - 1) * p.u, !bits.get((untouched - 1) * p.u));
  LineInput mutated(p, bits);
  EXPECT_EQ(f.evaluate(oracle, mutated), chain.output);
}

TEST(LineFunction, MeterChargesWQueriesAndInputSpace) {
  LineParams p = params();
  LineFunction f(p);
  hash::LazyRandomOracle oracle(p.n, p.n, 40);
  util::Rng rng(41);
  LineInput input = LineInput::random(p, rng);
  ram::RamMeter meter(p.n);
  f.evaluate(oracle, input, &meter);
  EXPECT_EQ(meter.costs().oracle_queries, p.w);
  EXPECT_GE(meter.costs().time_units, p.w * p.n);
  EXPECT_GE(meter.costs().peak_memory_bits, p.input_bits());
  // Space is O(S): input plus constant-size working state.
  EXPECT_LE(meter.costs().peak_memory_bits, p.input_bits() + 3 * p.n + 64);
  EXPECT_EQ(meter.live_bits(), 0u);
}

TEST(LineFunction, CorrectEntriesAfterFiltersByIndex) {
  LineParams p = params();
  LineFunction f(p);
  hash::LazyRandomOracle oracle(p.n, p.n, 50);
  util::Rng rng(51);
  LineInput input = LineInput::random(p, rng);
  LineChain chain = f.evaluate_chain(oracle, input);

  EXPECT_EQ(chain.all_correct_queries().size(), p.w);
  // C^{(k)} with stride h: entries with index > k*h.
  auto c1 = chain.correct_entries_after(1, 10);
  EXPECT_EQ(c1.size(), p.w - 10);
  auto c0 = chain.correct_entries_after(0, 10);
  EXPECT_EQ(c0.size(), p.w);
}

TEST(LineFunction, EllDistributionRoughlyUniform) {
  // The ℓ_i pointer sequence should look uniform over [v] (Figure 1's
  // mechanism). Chi-square-ish tolerance check over a longer chain.
  LineParams p = LineParams::make(64, 16, 8, 2048);
  LineFunction f(p);
  hash::LazyRandomOracle oracle(p.n, p.n, 60);
  util::Rng rng(61);
  LineInput input = LineInput::random(p, rng);
  LineChain chain = f.evaluate_chain(oracle, input);
  std::vector<int> counts(p.v + 1, 0);
  for (std::size_t i = 1; i < chain.nodes.size(); ++i) ++counts[chain.nodes[i].ell];
  double expected = static_cast<double>(p.w - 1) / p.v;
  for (std::uint64_t b = 1; b <= p.v; ++b) {
    EXPECT_GT(counts[b], expected * 0.6) << b;
    EXPECT_LT(counts[b], expected * 1.4) << b;
  }
}

TEST(LineFunction, BoundedChainIsTheFullChainsPrefix) {
  // The guess-ahead trials evaluate only through their target node; that
  // prefix must be exactly the full chain's, for Line and SimLine alike.
  LineParams p = LineParams::make(64, 16, 8, 16);
  util::Rng rng(70);
  LineInput input = LineInput::random(p, rng);
  LineFunction line(p);
  SimLineFunction simline(p);
  hash::LazyRandomOracle full_oracle(p.n, p.n, 71);
  LineChain line_full = line.evaluate_chain(full_oracle, input);
  SimLineChain sim_full = simline.evaluate_chain(full_oracle, input);
  for (std::uint64_t count : {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{9}, p.w}) {
    SCOPED_TRACE(count);
    hash::LazyRandomOracle oracle(p.n, p.n, 71);
    LineChain line_part = line.evaluate_chain(oracle, input, count);
    SimLineChain sim_part = simline.evaluate_chain(oracle, input, count);
    ASSERT_EQ(line_part.nodes.size(), count);
    ASSERT_EQ(sim_part.nodes.size(), count);
    for (std::uint64_t k = 0; k < count; ++k) {
      EXPECT_EQ(line_part.nodes[k].index, line_full.nodes[k].index);
      EXPECT_EQ(line_part.nodes[k].ell, line_full.nodes[k].ell);
      EXPECT_EQ(line_part.nodes[k].r, line_full.nodes[k].r);
      EXPECT_EQ(line_part.nodes[k].query, line_full.nodes[k].query);
      EXPECT_EQ(line_part.nodes[k].answer, line_full.nodes[k].answer);
      EXPECT_EQ(sim_part.nodes[k].index, sim_full.nodes[k].index);
      EXPECT_EQ(sim_part.nodes[k].block, sim_full.nodes[k].block);
      EXPECT_EQ(sim_part.nodes[k].r, sim_full.nodes[k].r);
      EXPECT_EQ(sim_part.nodes[k].query, sim_full.nodes[k].query);
      EXPECT_EQ(sim_part.nodes[k].answer, sim_full.nodes[k].answer);
    }
    // Only a complete chain has an output.
    EXPECT_EQ(line_part.output, count == p.w ? line_full.output : BitString());
    EXPECT_EQ(sim_part.output, count == p.w ? sim_full.output : BitString());
  }
  hash::LazyRandomOracle oracle(p.n, p.n, 71);
  EXPECT_THROW(line.evaluate_chain(oracle, input, 0), std::invalid_argument);
  EXPECT_THROW(line.evaluate_chain(oracle, input, p.w + 1), std::invalid_argument);
  EXPECT_THROW(simline.evaluate_chain(oracle, input, 0), std::invalid_argument);
  EXPECT_THROW(simline.evaluate_chain(oracle, input, p.w + 1), std::invalid_argument);
}

}  // namespace
}  // namespace mpch::core
