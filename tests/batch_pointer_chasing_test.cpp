#include "strategies/batch_pointer_chasing.hpp"

#include <gtest/gtest.h>

#include <string>

#include "core/line.hpp"
#include "hash/random_oracle.hpp"
#include "serve/scenario.hpp"
#include "strategies/pointer_chasing.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

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

mpc::MpcRunResult run_batch(Batch& b, std::uint64_t m, std::uint64_t k,
                            std::uint64_t threads = 1,
                            std::shared_ptr<hash::LazyRandomOracle> oracle = nullptr) {
  BatchPointerChasingStrategy strat(b.p, OwnershipPlan::round_robin(b.p, m), k);
  mpc::MpcConfig c;
  c.machines = m;
  c.local_memory_bits = strat.required_local_memory();
  c.query_budget = 1 << 20;
  c.max_rounds = 20000;  // fail fast on regressions instead of spinning
  c.threads = threads;
  mpc::MpcSimulation sim(c, oracle ? oracle : b.oracle);
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

TEST(BatchPointerChasing, ThreadedE17ShapedRunMatchesSerial) {
  // E17's threaded shape: 16 chains on 8 machines, 8 threads. Each machine
  // reads its own cache slots and scratch row, so the threaded run must
  // equal the serial one in every artifact.
  const std::uint64_t k = 16, m = 8;
  Batch b(256, k, 6);
  auto serial_oracle = std::make_shared<hash::LazyRandomOracle>(b.p.n, b.p.n, 6);
  auto threaded_oracle = std::make_shared<hash::LazyRandomOracle>(b.p.n, b.p.n, 6);
  const mpc::MpcRunResult serial = run_batch(b, m, k, 1, serial_oracle);
  const mpc::MpcRunResult threaded = run_batch(b, m, k, 8, threaded_oracle);
  ASSERT_TRUE(serial.completed);
  auto answers = BatchPointerChasingStrategy::parse_outputs(b.p, serial.output, k);
  for (std::uint64_t i = 0; i < k; ++i) EXPECT_EQ(answers[i], b.expected[i]) << i;
  for (const std::string& diff :
       serve::artifact_mismatches(serial, serial_oracle.get(), threaded, threaded_oracle.get())) {
    ADD_FAILURE() << diff;
  }
}

/// Round-0 shares of a 2-instance batch on 4 machines, run with machine 0's
/// share edited by `edit`; returns what() of the std::invalid_argument the
/// run throws (empty if it throws none).
template <typename Edit>
std::string bad_instance_error(Edit edit) {
  const std::uint64_t k = 2;
  Batch b(128, k, 7);
  BatchPointerChasingStrategy strat(b.p, OwnershipPlan::round_robin(b.p, 4), k);
  mpc::MpcConfig c;
  c.machines = 4;
  c.local_memory_bits = strat.required_local_memory();
  c.query_budget = 1 << 20;
  c.max_rounds = 20000;
  std::vector<util::BitString> shares = strat.make_initial_memory(b.inputs);
  edit(b.p, shares[0]);
  mpc::MpcSimulation sim(c, b.oracle);
  try {
    sim.run(strat, shares);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

/// Appends the record [tag:2][inst:16] + `body` to `share`.
void append_record(util::BitString& share, std::uint64_t tag, std::uint64_t inst,
                   const util::BitString& body) {
  util::BitWriter w;
  w.write_uint(tag, kTagBits);
  w.write_uint(inst, 16);
  w.write_bits(body);
  share += w.take();
}

TEST(BatchPointerChasing, BlocksRecordWithUnknownInstanceThrows) {
  const std::string error = bad_instance_error([](const core::LineParams&, util::BitString& s) {
    s.set_uint(kTagBits, 16, 2);  // the first block record now names instance k = 2
  });
  EXPECT_NE(error.find("blocks record names instance 2 >= k=2 in round 0"), std::string::npos)
      << error;
}

TEST(BatchPointerChasing, FrontierRecordWithUnknownInstanceThrows) {
  const std::string error = bad_instance_error([](const core::LineParams& p, util::BitString& s) {
    append_record(s, static_cast<std::uint64_t>(PayloadTag::kFrontier), 7,
                  Frontier::start(p).encode(p));
  });
  EXPECT_NE(error.find("frontier record names instance 7 >= k=2 in round 0"), std::string::npos)
      << error;
}

TEST(BatchPointerChasing, DoneRecordWithUnknownInstanceThrows) {
  const std::string error = bad_instance_error([](const core::LineParams& p, util::BitString& s) {
    append_record(s, 2, 9, util::BitString(p.n));
  });
  EXPECT_NE(error.find("done record names instance 9 >= k=2 in round 0"), std::string::npos)
      << error;
}

TEST(BatchPointerChasing, CollectedRecordWithUnknownInstanceThrows) {
  // A collected set of two answers, the second for an instance the batch
  // lacks: without the check it would count as the k-th answer.
  const std::string error = bad_instance_error([](const core::LineParams& p, util::BitString& s) {
    util::BitWriter w;
    w.write_uint(3, kTagBits);
    w.write_uint(2, 16);
    w.write_uint(0, 16);
    w.write_bits(util::BitString(p.n));
    w.write_uint(40000, 16);
    w.write_bits(util::BitString(p.n));
    s += w.take();
  });
  EXPECT_NE(error.find("collected record names instance 40000 >= k=2 in round 0"),
            std::string::npos)
      << error;
}

}  // namespace
}  // namespace mpch::strategies
