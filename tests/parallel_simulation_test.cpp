// parallel_simulation_test.cpp — threaded round-loop cases outside the
// determinism matrix.
//
// MpcConfig::threads promises bit-identical results at any thread count.
// transport_conformance_test.cpp pins that for every catalog strategy
// against the serial reference. This suite keeps what the catalog cannot
// express: a parallel run checked against the line function itself, the
// lowest-index failure winning with the same message in both modes, sparse
// annotations merged from reused scratch traces, a thread count above m, and
// concurrent BlockSet decoding.
#include "mpc/simulation.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/line.hpp"
#include "hash/random_oracle.hpp"
#include "scenario_runs.hpp"
#include "strategies/block_store.hpp"
#include "strategies/guess_ahead.hpp"
#include "strategies/pointer_chasing.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace mpch {
namespace {

using util::BitString;

constexpr std::uint64_t kSeeds[] = {11, 22, 33};

TEST(ParallelDifferential, ParallelOutputMatchesRamEvaluation) {
  // Not just serial == parallel: the catalog's pointer-chasing at seed 11 on
  // eight threads also computes the right function (guards against both
  // paths being identically wrong). Its parameters and input are rebuilt
  // here exactly as serve::make_scenario draws them.
  core::LineParams p = core::LineParams::make(64, 16, 8, 96);
  util::Rng rng(12);
  core::LineInput input = core::LineInput::random(p, rng);
  hash::LazyRandomOracle ref_oracle(p.n, p.n, 11);
  const Execution parallel = run_once(catalog("pointer-chasing", 11, 8));
  ASSERT_TRUE(parallel.run.completed);
  EXPECT_EQ(parallel.run.output, core::LineFunction(p).evaluate(ref_oracle, input));
}

TEST(ParallelDifferential, GuessAheadTrialsAreSeedDeterministic) {
  // guess_ahead is a Monte-Carlo harness, not an MpcAlgorithm; its
  // differential property is seed-determinism of the trial loop.
  strategies::GuessAheadConfig c;
  c.params = core::LineParams::make(3 * 4 + 16, 4, 8, 16);
  c.guesses_per_trial = 4;
  for (std::uint64_t seed : kSeeds) {
    auto a = strategies::run_guess_ahead_trials(c, seed, 300);
    auto b = strategies::run_guess_ahead_trials(c, seed, 300);
    EXPECT_EQ(a.hits, b.hits) << seed;
    EXPECT_EQ(a.trials, b.trials) << seed;
  }
}

TEST(ParallelDifferential, BlockSetDecodeIsPureUnderConcurrency) {
  // block_store has no strategy object of its own, but every strategy decodes
  // BlockSets concurrently; decode of one payload from many threads must
  // agree with a serial decode.
  core::LineParams p = core::LineParams::make(64, 16, 8, 96);
  strategies::BlockSet set(p);
  util::Rng rng(9);
  for (std::uint64_t b = 1; b <= p.v; ++b) {
    set.add(b, BitString::random(p.u, [&] { return rng.next_u64(); }));
  }
  BitString payload = set.encode();
  BitString serial = strategies::BlockSet::decode(p, payload).encode();

  util::ThreadPool pool(8);
  std::vector<BitString> results(32);
  pool.parallel_chunks(results.size(), [&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      results[i] = strategies::BlockSet::decode(p, payload).encode();
    }
  });
  for (const auto& r : results) EXPECT_EQ(r, serial);
}

/// Machines 1 and 3 both blow their budget in round 0; the lowest-index
/// failure must win in both modes, with an identical message.
class DoubleOverrunAlgorithm final : public mpc::MpcAlgorithm {
 public:
  void run_machine(mpc::MachineIo& io, hash::CountingOracle* oracle, const mpc::SharedTape&,
                   mpc::RoundTrace&) override {
    if (io.machine == 1 || io.machine == 3) {
      for (int i = 0; i < 100; ++i) {
        oracle->query(BitString::from_uint(static_cast<std::uint64_t>(i) * 4 + io.machine, 16));
      }
    }
    io.output = BitString(1);
  }
  std::string name() const override { return "double-overrun"; }
};

TEST(ParallelDifferential, BudgetOverrunThrowsDeterministically) {
  std::string serial_what;
  for (std::uint64_t threads : {std::uint64_t{0}, std::uint64_t{2}, std::uint64_t{8}}) {
    auto oracle = std::make_shared<hash::LazyRandomOracle>(16, 16, 5);
    mpc::MpcSimulation sim({.machines = 4, .local_memory_bits = 128, .query_budget = 10,
                            .threads = threads},
                           oracle);
    DoubleOverrunAlgorithm algo;
    std::string what;
    try {
      sim.run(algo, {BitString(1)});
      FAIL() << "expected QueryBudgetExceeded at threads=" << threads;
    } catch (const hash::QueryBudgetExceeded& e) {
      what = e.what();
    }
    EXPECT_NE(what.find("machine 1"), std::string::npos) << what;
    if (threads == 0) {
      serial_what = what;
    } else {
      EXPECT_EQ(what, serial_what) << "threads=" << threads;
    }
  }
}

TEST(ParallelDifferential, MemoryViolationThrowsInParallelToo) {
  class Flood final : public mpc::MpcAlgorithm {
   public:
    void run_machine(mpc::MachineIo& io, hash::CountingOracle*, const mpc::SharedTape&,
                     mpc::RoundTrace&) override {
      if (io.round == 0) io.send(0, BitString(40));  // 4 x 40 > s = 64
    }
    std::string name() const override { return "flood"; }
  } algo;
  for (std::uint64_t threads : {std::uint64_t{0}, std::uint64_t{8}}) {
    mpc::MpcSimulation sim({.machines = 4, .local_memory_bits = 64, .threads = threads}, nullptr);
    EXPECT_THROW(sim.run(algo, {BitString(1)}), mpc::MemoryViolation) << threads;
  }
}

/// Annotates key "a" only in even rounds and key "b" only on machine 1 in
/// round 2; machine 0 outputs in round 4. Every slot's reused scratch trace
/// then carries keys that got no value in the round being merged.
class SparseAnnotations final : public mpc::MpcAlgorithm {
 public:
  void run_machine(mpc::MachineIo& io, hash::CountingOracle*, const mpc::SharedTape&,
                   mpc::RoundTrace& trace) override {
    if (io.round % 2 == 0) trace.annotate("a", 10 * io.round + io.machine);
    if (io.round == 2 && io.machine == 1) trace.annotate("b", 7);
    if (io.round == 4 && io.machine == 0) io.output = BitString(1);
  }
  std::string name() const override { return "sparse-annotations"; }
};

TEST(ParallelDifferential, SparseAnnotationsMergeIdentically) {
  const std::map<std::string, std::vector<std::uint64_t>> expected = {
      {"a", {0, 1, 2, 3, 20, 21, 22, 23, 40, 41, 42, 43}}, {"b", {7}}};
  SparseAnnotations algo;
  const auto run = [&](std::uint64_t threads) {
    mpc::MpcSimulation sim({.machines = 4, .local_memory_bits = 64, .threads = threads}, nullptr);
    return Execution{sim.run(algo, {}), nullptr};
  };
  const Execution baseline = run(0);
  EXPECT_EQ(baseline.run.trace.annotations(), expected);
  for (std::uint64_t threads : {std::uint64_t{2}, std::uint64_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_identical(baseline, run(threads));
  }
}

TEST(ParallelDifferential, ThreadCountAboveMachinesIsSafe) {
  // threads > m: the pool is clamped to m workers; results unchanged.
  core::LineParams p = core::LineParams::make(64, 16, 8, 64);
  auto o1 = std::make_shared<hash::LazyRandomOracle>(p.n, p.n, 3);
  auto o2 = std::make_shared<hash::LazyRandomOracle>(p.n, p.n, 3);
  util::Rng rng(4);
  core::LineInput input = core::LineInput::random(p, rng);
  strategies::PointerChasingStrategy s1(p, strategies::OwnershipPlan::round_robin(p, 2));
  strategies::PointerChasingStrategy s2(p, strategies::OwnershipPlan::round_robin(p, 2));
  const auto config = [&](std::uint64_t threads) {
    return mpc::MpcConfig{.machines = 2,
                          .local_memory_bits = s1.required_local_memory(),
                          .query_budget = 1 << 20,
                          .threads = threads};
  };
  mpc::MpcSimulation serial(config(0), o1);
  mpc::MpcSimulation parallel(config(64), o2);
  auto r1 = serial.run(s1, s1.make_initial_memory(input));
  auto r2 = parallel.run(s2, s2.make_initial_memory(input));
  ASSERT_TRUE(r1.completed);
  ASSERT_TRUE(r2.completed);
  EXPECT_EQ(r1.output, r2.output);
  EXPECT_EQ(r1.rounds_used, r2.rounds_used);
}

}  // namespace
}  // namespace mpch
