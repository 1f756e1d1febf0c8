// parallel_simulation_test.cpp — the serial-vs-parallel differential suite.
//
// MpcConfig::threads promises bit-identical results at any thread count. This
// suite pins that promise down for every strategy in the tree: each scenario
// builds a fresh (oracle, input, strategy) triple from a seed, runs it at
// threads ∈ {0 (serial baseline), 1, 2, 8}, and compares the *entire*
// observable result — output bits, rounds_used, every per-round RoundStats
// field, every trace annotation sequence, the canonically-sorted transcript
// (including per-machine seq numbers), the oracle's materialised sub-function
// (touched_table) and exact query count. Failure semantics are differential
// too: budget overruns and memory violations must surface as the same
// exception with the same message in both modes.
#include "mpc/simulation.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/line.hpp"
#include "hash/random_oracle.hpp"
#include "mpclib/primitives.hpp"
#include "ram/machine.hpp"
#include "ram/programs.hpp"
#include "strategies/batch_pointer_chasing.hpp"
#include "strategies/colluding.hpp"
#include "strategies/dictionary.hpp"
#include "strategies/full_memory.hpp"
#include "strategies/guess_ahead.hpp"
#include "strategies/pipelined_simline.hpp"
#include "strategies/pointer_chasing.hpp"
#include "strategies/ram_emulation.hpp"
#include "strategies/speculative.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"
#include "util/thread_pool.hpp"

namespace mpch {
namespace {

using util::BitString;

constexpr std::uint64_t kSeeds[] = {11, 22, 33};
constexpr std::uint64_t kThreadCounts[] = {1, 2, 8};

/// Everything observable about one run, flattened for comparison.
struct Artifacts {
  bool completed = false;
  std::uint64_t rounds_used = 0;
  BitString output;
  std::vector<mpc::RoundStats> rounds;
  std::map<std::string, std::vector<std::uint64_t>> annotations;
  std::vector<hash::QueryRecord> records;
  std::vector<std::pair<BitString, BitString>> touched;
  std::uint64_t oracle_total = 0;
  std::uint64_t extra = 0;  ///< strategy-specific counter (e.g. lucky_escapes)
};

Artifacts extract(const mpc::MpcRunResult& result, const hash::LazyRandomOracle* oracle) {
  Artifacts a;
  a.completed = result.completed;
  a.rounds_used = result.rounds_used;
  a.output = result.output;
  a.rounds = result.trace.rounds();
  a.annotations = result.trace.annotations();
  a.records = result.transcript->records();
  if (oracle != nullptr) {
    a.touched = oracle->touched_table();
    a.oracle_total = oracle->total_queries();
  }
  return a;
}

void expect_identical(const Artifacts& serial, const Artifacts& parallel) {
  EXPECT_EQ(serial.completed, parallel.completed);
  EXPECT_EQ(serial.rounds_used, parallel.rounds_used);
  EXPECT_EQ(serial.output, parallel.output);
  EXPECT_EQ(serial.extra, parallel.extra);

  ASSERT_EQ(serial.rounds.size(), parallel.rounds.size());
  for (std::size_t r = 0; r < serial.rounds.size(); ++r) {
    const auto& s = serial.rounds[r];
    const auto& p = parallel.rounds[r];
    EXPECT_EQ(s.round, p.round) << "round " << r;
    EXPECT_EQ(s.messages, p.messages) << "round " << r;
    EXPECT_EQ(s.communicated_bits, p.communicated_bits) << "round " << r;
    EXPECT_EQ(s.oracle_queries, p.oracle_queries) << "round " << r;
    EXPECT_EQ(s.max_inbox_bits, p.max_inbox_bits) << "round " << r;
  }

  EXPECT_EQ(serial.annotations, parallel.annotations);

  ASSERT_EQ(serial.records.size(), parallel.records.size());
  for (std::size_t i = 0; i < serial.records.size(); ++i) {
    const auto& s = serial.records[i];
    const auto& p = parallel.records[i];
    EXPECT_EQ(s.round, p.round) << "record " << i;
    EXPECT_EQ(s.machine, p.machine) << "record " << i;
    EXPECT_EQ(s.seq, p.seq) << "record " << i;
    EXPECT_EQ(s.input, p.input) << "record " << i;
    EXPECT_EQ(s.output, p.output) << "record " << i;
  }

  EXPECT_EQ(serial.oracle_total, parallel.oracle_total);
  ASSERT_EQ(serial.touched.size(), parallel.touched.size());
  for (std::size_t i = 0; i < serial.touched.size(); ++i) {
    EXPECT_EQ(serial.touched[i].first, parallel.touched[i].first) << "entry " << i;
    EXPECT_EQ(serial.touched[i].second, parallel.touched[i].second) << "entry " << i;
  }
}

using Scenario = std::function<Artifacts(std::uint64_t seed, std::uint64_t threads)>;

void run_differential(const Scenario& scenario) {
  for (std::uint64_t seed : kSeeds) {
    Artifacts baseline = scenario(seed, 0);  // the serial reference
    for (std::uint64_t threads : kThreadCounts) {
      SCOPED_TRACE("seed=" + std::to_string(seed) + " threads=" + std::to_string(threads));
      expect_identical(baseline, scenario(seed, threads));
    }
  }
}

mpc::MpcConfig cfg(std::uint64_t m, std::uint64_t s, std::uint64_t q, std::uint64_t threads,
                   std::uint64_t max_rounds = 20000) {
  mpc::MpcConfig c;
  c.machines = m;
  c.local_memory_bits = s;
  c.query_budget = q;
  c.max_rounds = max_rounds;
  c.tape_seed = 5;
  c.threads = threads;
  return c;
}

TEST(ParallelDifferential, PointerChasing) {
  run_differential([](std::uint64_t seed, std::uint64_t threads) {
    core::LineParams p = core::LineParams::make(64, 16, 8, 96);
    auto oracle = std::make_shared<hash::LazyRandomOracle>(p.n, p.n, seed);
    util::Rng rng(seed + 1);
    core::LineInput input = core::LineInput::random(p, rng);
    strategies::PointerChasingStrategy strat(p, strategies::OwnershipPlan::round_robin(p, 4));
    mpc::MpcSimulation sim(cfg(4, strat.required_local_memory(), 1 << 20, threads), oracle);
    auto result = sim.run(strat, strat.make_initial_memory(input));
    EXPECT_TRUE(result.completed);
    return extract(result, oracle.get());
  });
}

TEST(ParallelDifferential, ParallelOutputMatchesRamEvaluation) {
  // Not just serial == parallel: the parallel run also computes the right
  // function (guards against both paths being identically wrong).
  core::LineParams p = core::LineParams::make(64, 16, 8, 96);
  auto ref_oracle = std::make_shared<hash::LazyRandomOracle>(p.n, p.n, 11);
  util::Rng rng(12);
  core::LineInput input = core::LineInput::random(p, rng);
  BitString expected = core::LineFunction(p).evaluate(*ref_oracle, input);

  auto oracle = std::make_shared<hash::LazyRandomOracle>(p.n, p.n, 11);
  strategies::PointerChasingStrategy strat(p, strategies::OwnershipPlan::round_robin(p, 4));
  mpc::MpcSimulation sim(cfg(4, strat.required_local_memory(), 1 << 20, 8), oracle);
  auto result = sim.run(strat, strat.make_initial_memory(input));
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.output, expected);
}

TEST(ParallelDifferential, BatchPointerChasing) {
  run_differential([](std::uint64_t seed, std::uint64_t threads) {
    core::LineParams p = core::LineParams::make(64, 16, 8, 128);
    auto oracle = std::make_shared<hash::LazyRandomOracle>(p.n, p.n, seed);
    const std::uint64_t k = 4, m = 4;
    std::vector<core::LineInput> inputs;
    for (std::uint64_t i = 0; i < k; ++i) {
      util::Rng rng(seed * 100 + i);
      inputs.push_back(core::LineInput::random(p, rng));
    }
    strategies::BatchPointerChasingStrategy strat(
        p, strategies::OwnershipPlan::round_robin(p, m), k);
    mpc::MpcSimulation sim(cfg(m, strat.required_local_memory(), 1 << 20, threads), oracle);
    auto result = sim.run(strat, strat.make_initial_memory(inputs));
    EXPECT_TRUE(result.completed);
    return extract(result, oracle.get());
  });
}

TEST(ParallelDifferential, SpeculativeEnumeration) {
  // u = 4 with exhaustive enumeration: every stall escapes by guessing, so
  // the run exercises the tape-indexed guessing path and the lucky_escapes
  // counter under concurrency.
  run_differential([](std::uint64_t seed, std::uint64_t threads) {
    core::LineParams p = core::LineParams::make(3 * 4 + 16, 4, 8, 64);
    auto oracle = std::make_shared<hash::LazyRandomOracle>(p.n, p.n, seed);
    util::Rng rng(seed * 3 + 7);
    core::LineInput input = core::LineInput::random(p, rng);
    strategies::SpeculativeStrategy strat(p, strategies::OwnershipPlan::round_robin(p, 4),
                                          {16, true}, input);
    mpc::MpcSimulation sim(cfg(4, strat.required_local_memory(), 1 << 20, threads), oracle);
    auto result = sim.run(strat, strat.make_initial_memory(input));
    EXPECT_TRUE(result.completed);
    Artifacts a = extract(result, oracle.get());
    a.extra = strat.lucky_escapes();
    return a;
  });
}

TEST(ParallelDifferential, PipelinedSimLine) {
  run_differential([](std::uint64_t seed, std::uint64_t threads) {
    core::LineParams p = core::LineParams::make(64, 16, 16, 256);
    auto oracle = std::make_shared<hash::LazyRandomOracle>(p.n, p.n, seed);
    util::Rng rng(seed + 2);
    core::LineInput input = core::LineInput::random(p, rng);
    strategies::PipelinedSimLineStrategy strat(p, strategies::OwnershipPlan::windows(p, 4, 4));
    mpc::MpcSimulation sim(cfg(4, strat.required_local_memory(), 1 << 20, threads), oracle);
    auto result = sim.run(strat, strat.make_initial_memory(input));
    EXPECT_TRUE(result.completed);
    return extract(result, oracle.get());
  });
}

TEST(ParallelDifferential, ColludingBroadcast) {
  // The broadcast ablation is the sharpest concurrency test: *every* machine
  // owning the needed block advances in parallel, issuing duplicate oracle
  // queries from multiple threads in the same round.
  run_differential([](std::uint64_t seed, std::uint64_t threads) {
    core::LineParams p = core::LineParams::make(64, 16, 8, 96);
    auto oracle = std::make_shared<hash::LazyRandomOracle>(p.n, p.n, seed);
    util::Rng rng(seed + 3);
    core::LineInput input = core::LineInput::random(p, rng);
    strategies::ColludingStrategy strat(p, strategies::OwnershipPlan::round_robin(p, 4));
    mpc::MpcSimulation sim(cfg(4, strat.required_local_memory(), 1 << 20, threads), oracle);
    auto result = sim.run(strat, strat.make_initial_memory(input));
    EXPECT_TRUE(result.completed);
    return extract(result, oracle.get());
  });
}

TEST(ParallelDifferential, Dictionary) {
  run_differential([](std::uint64_t seed, std::uint64_t threads) {
    core::LineParams p = core::LineParams::make(64, 16, 32, 128);
    auto oracle = std::make_shared<hash::LazyRandomOracle>(p.n, p.n, seed);
    util::Rng rng(seed + 4);
    core::LineInput input = strategies::make_low_entropy_input(p, 2, rng);
    strategies::DictionaryStrategy strat(p, 4);
    mpc::MpcSimulation sim(cfg(4, strat.gathered_bits(2), p.w + 1, threads, 10), oracle);
    auto result = sim.run(strat, strat.make_initial_memory(input));
    EXPECT_TRUE(result.completed);
    return extract(result, oracle.get());
  });
}

TEST(ParallelDifferential, FullMemory) {
  run_differential([](std::uint64_t seed, std::uint64_t threads) {
    core::LineParams p = core::LineParams::make(64, 16, 8, 256);
    auto oracle = std::make_shared<hash::LazyRandomOracle>(p.n, p.n, seed);
    util::Rng rng(seed + 5);
    core::LineInput input = core::LineInput::random(p, rng);
    strategies::FullMemoryStrategy strat(p, strategies::OwnershipPlan::round_robin(p, 4));
    mpc::MpcSimulation sim(cfg(4, strat.required_local_memory(), p.w + 1, threads, 10), oracle);
    auto result = sim.run(strat, strat.make_initial_memory(input));
    EXPECT_TRUE(result.completed);
    return extract(result, oracle.get());
  });
}

TEST(ParallelDifferential, RamEmulation) {
  // Plain model (no oracle): the CPU/server message choreography must still
  // merge identically. Memory contents vary with the seed.
  run_differential([](std::uint64_t seed, std::uint64_t threads) {
    const std::uint64_t n = 8;
    std::vector<std::uint64_t> memory(n);
    for (std::uint64_t i = 0; i < n; ++i) memory[i] = (seed * 7 + i * 3) % 97;
    std::vector<ram::Instruction> prog = ram::programs::sum(n);
    strategies::RamEmulationStrategy strat(prog, 4, 1);
    mpc::MpcConfig c = cfg(4, strat.required_local_memory(memory.size()), 1, threads, 1 << 20);
    mpc::MpcSimulation sim(c, nullptr);
    auto result = sim.run(strat, strat.make_initial_memory(memory));
    EXPECT_TRUE(result.completed);
    return extract(result, nullptr);
  });
}

TEST(ParallelDifferential, MpclibBroadcast) {
  // Plain-model substrate algorithm at a machine count well above the thread
  // cap, so chunks carry several machines each.
  run_differential([](std::uint64_t seed, std::uint64_t threads) {
    const std::uint64_t m = 16;
    mpclib::BroadcastAlgorithm algo(m, 2);
    mpc::MpcConfig c = cfg(m, 1 << 16, 1, threads, 200);
    c.tape_seed = seed;
    mpc::MpcSimulation sim(c, nullptr);
    auto result = sim.run(algo, {BitString::from_uint(0xBEEF ^ seed, 16)});
    EXPECT_TRUE(result.completed);
    return extract(result, nullptr);
  });
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
    mpc::MpcSimulation sim(cfg(4, 128, 10, threads), oracle);
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
    mpc::MpcSimulation sim(cfg(4, 64, 1, threads), nullptr);
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
  mpc::MpcSimulation serial(cfg(4, 64, 1, 0), nullptr);
  const Artifacts baseline = extract(serial.run(algo, {}), nullptr);
  EXPECT_EQ(baseline.annotations, expected);
  for (std::uint64_t threads : {std::uint64_t{2}, std::uint64_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    mpc::MpcSimulation parallel(cfg(4, 64, 1, threads), nullptr);
    expect_identical(baseline, extract(parallel.run(algo, {}), nullptr));
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
  mpc::MpcSimulation serial(cfg(2, s1.required_local_memory(), 1 << 20, 0), o1);
  mpc::MpcSimulation parallel(cfg(2, s2.required_local_memory(), 1 << 20, 64), o2);
  auto r1 = serial.run(s1, s1.make_initial_memory(input));
  auto r2 = parallel.run(s2, s2.make_initial_memory(input));
  ASSERT_TRUE(r1.completed);
  ASSERT_TRUE(r2.completed);
  EXPECT_EQ(r1.output, r2.output);
  EXPECT_EQ(r1.rounds_used, r2.rounds_used);
}

}  // namespace
}  // namespace mpch
