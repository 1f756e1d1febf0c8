// The dynamic half: every strategy's declared ProtocolSpec is pinned to
// reality by running it under the instrumented simulation and asserting the
// observed per-round peaks never exceed the declared envelopes. A spec that
// understates its footprint (the "lying spec" cases) must be caught with the
// observed value, the declared limit, and machine/round provenance.
#include "analysis/spec_soundness.hpp"

#include <gtest/gtest.h>

#include "core/line.hpp"
#include "hash/random_oracle.hpp"
#include "ram/machine.hpp"
#include "ram/programs.hpp"
#include "strategies/batch_pointer_chasing.hpp"
#include "strategies/colluding.hpp"
#include "strategies/dictionary.hpp"
#include "strategies/full_memory.hpp"
#include "strategies/pipelined_simline.hpp"
#include "strategies/pointer_chasing.hpp"
#include "strategies/ram_emulation.hpp"
#include "strategies/speculative.hpp"
#include "util/rng.hpp"

namespace mpch::analysis {
namespace {

core::LineParams params(std::uint64_t w = 64) { return core::LineParams::make(64, 16, 8, w); }

/// Run a Line-family strategy under its documented config and assert the
/// observed trace stays inside the declared spec.
template <typename Strategy>
void expect_sound(Strategy& strat, const core::LineInput& input, std::uint64_t q,
                  std::uint64_t seed) {
  ProtocolSpec spec = strat.protocol_spec();
  mpc::MpcConfig c = documented_config(spec, q);
  auto oracle = std::make_shared<hash::LazyRandomOracle>(64, 64, seed);
  mpc::MpcSimulation sim(c, oracle);
  auto result = sim.run(strat, strat.make_initial_memory(input));
  ASSERT_TRUE(result.completed);
  AnalysisReport report = check_soundness(spec, result, c);
  EXPECT_TRUE(report.ok()) << report.format();
}

TEST(SpecSoundness, PointerChasing) {
  core::LineParams p = params();
  util::Rng rng(11);
  core::LineInput input = core::LineInput::random(p, rng);
  strategies::PointerChasingStrategy strat(p, strategies::OwnershipPlan::round_robin(p, 4));
  expect_sound(strat, input, 4, 12);
}

TEST(SpecSoundness, Colluding) {
  core::LineParams p = params();
  util::Rng rng(13);
  core::LineInput input = core::LineInput::random(p, rng);
  strategies::ColludingStrategy strat(p, strategies::OwnershipPlan::round_robin(p, 4));
  expect_sound(strat, input, 4, 14);
}

TEST(SpecSoundness, PipelinedSimLine) {
  core::LineParams p = params();
  util::Rng rng(15);
  core::LineInput input = core::LineInput::random(p, rng);
  strategies::PipelinedSimLineStrategy strat(p, strategies::OwnershipPlan::windows(p, 4, 2));
  expect_sound(strat, input, 4, 16);
}

TEST(SpecSoundness, Speculative) {
  core::LineParams p = params();
  util::Rng rng(17);
  core::LineInput input = core::LineInput::random(p, rng);
  strategies::SpeculativeStrategy strat(p, strategies::OwnershipPlan::round_robin(p, 4),
                                        {4, true}, input);
  expect_sound(strat, input, 8, 18);
}

TEST(SpecSoundness, FullMemory) {
  core::LineParams p = params();
  util::Rng rng(19);
  core::LineInput input = core::LineInput::random(p, rng);
  strategies::FullMemoryStrategy strat(p, strategies::OwnershipPlan::round_robin(p, 4));
  expect_sound(strat, input, p.w, 20);
}

TEST(SpecSoundness, Dictionary) {
  core::LineParams p = params();
  util::Rng rng(21);
  core::LineInput input = core::LineInput::random(p, rng);
  strategies::DictionaryStrategy strat(p, 4);
  expect_sound(strat, input, p.w, 22);
}

TEST(SpecSoundness, BatchPointerChasing) {
  core::LineParams p = params();
  std::vector<core::LineInput> inputs;
  for (std::uint64_t i = 0; i < 3; ++i) {
    util::Rng rng(23 + i);
    inputs.push_back(core::LineInput::random(p, rng));
  }
  strategies::BatchPointerChasingStrategy strat(
      p, strategies::OwnershipPlan::round_robin(p, 4), 3);
  ProtocolSpec spec = strat.protocol_spec();
  mpc::MpcConfig c = documented_config(spec, 4);
  auto oracle = std::make_shared<hash::LazyRandomOracle>(64, 64, 26);
  mpc::MpcSimulation sim(c, oracle);
  auto result = sim.run(strat, strat.make_initial_memory(inputs));
  ASSERT_TRUE(result.completed);
  AnalysisReport report = check_soundness(spec, result, c);
  EXPECT_TRUE(report.ok()) << report.format();
}

TEST(SpecSoundness, RamEmulation) {
  const std::uint64_t n = 8;
  std::vector<ram::Instruction> prog = ram::programs::sum(n);
  std::vector<std::uint64_t> memory(n);
  for (std::uint64_t i = 0; i < n; ++i) memory[i] = i + 1;
  ram::RamMachine native(prog, memory);
  native.run();

  strategies::RamEmulationStrategy strat(prog, 4, 1, memory.size(), native.steps_executed());
  ProtocolSpec spec = strat.protocol_spec();
  mpc::MpcConfig c = documented_config(spec, 0);
  mpc::MpcSimulation sim(c, nullptr);
  auto result = sim.run(strat, strat.make_initial_memory(memory));
  ASSERT_TRUE(result.completed);
  AnalysisReport report = check_soundness(spec, result, c);
  EXPECT_TRUE(report.ok()) << report.format();
}

// --- lying specs are caught with provenance ---

TEST(SpecSoundness, CatchesUnderstatedMemory) {
  core::LineParams p = params();
  util::Rng rng(31);
  core::LineInput input = core::LineInput::random(p, rng);
  strategies::PointerChasingStrategy strat(p, strategies::OwnershipPlan::round_robin(p, 4));
  ProtocolSpec spec = strat.protocol_spec();
  mpc::MpcConfig c = documented_config(spec, 4);
  auto oracle = std::make_shared<hash::LazyRandomOracle>(64, 64, 32);
  mpc::MpcSimulation sim(c, oracle);
  auto result = sim.run(strat, strat.make_initial_memory(input));
  ASSERT_TRUE(result.completed);

  ProtocolSpec lying = spec;
  lying.steady.memory_bits = 1;  // the run certainly used more
  AnalysisReport report = check_soundness(lying, result, c);
  ASSERT_FALSE(report.ok());
  const Diagnostic& d = report.violations.front();
  EXPECT_EQ(d.kind, ViolationKind::kMemory);
  EXPECT_GT(d.value, d.limit);
  EXPECT_EQ(d.limit, 1u);
  // Provenance names the witness machine the instrumentation recorded.
  EXPECT_LT(d.machine, 4u);
  EXPECT_NE(d.to_string().find("observed"), std::string::npos);
}

TEST(SpecSoundness, CatchesUnderstatedFanOut) {
  core::LineParams p = params();
  util::Rng rng(33);
  core::LineInput input = core::LineInput::random(p, rng);
  strategies::ColludingStrategy strat(p, strategies::OwnershipPlan::round_robin(p, 4));
  ProtocolSpec spec = strat.protocol_spec();
  mpc::MpcConfig c = documented_config(spec, 4);
  auto oracle = std::make_shared<hash::LazyRandomOracle>(64, 64, 34);
  mpc::MpcSimulation sim(c, oracle);
  auto result = sim.run(strat, strat.make_initial_memory(input));
  ASSERT_TRUE(result.completed);

  ProtocolSpec lying = spec;
  lying.steady.fan_out = 1;  // the broadcast sends to all m machines
  AnalysisReport report = check_soundness(lying, result, c);
  ASSERT_FALSE(report.ok());
  const Diagnostic* fan_out = nullptr;
  for (const auto& d : report.violations) {
    if (d.kind == ViolationKind::kFanOut) fan_out = &d;
  }
  ASSERT_NE(fan_out, nullptr) << report.format();
  EXPECT_GT(fan_out->value, 1u);
}

TEST(SpecSoundness, CatchesUnderstatedRoundCount) {
  core::LineParams p = params();
  util::Rng rng(35);
  core::LineInput input = core::LineInput::random(p, rng);
  strategies::PointerChasingStrategy strat(p, strategies::OwnershipPlan::round_robin(p, 4));
  ProtocolSpec spec = strat.protocol_spec();
  mpc::MpcConfig c = documented_config(spec, 4);
  auto oracle = std::make_shared<hash::LazyRandomOracle>(64, 64, 36);
  mpc::MpcSimulation sim(c, oracle);
  auto result = sim.run(strat, strat.make_initial_memory(input));
  ASSERT_TRUE(result.completed);
  ASSERT_GT(result.rounds_used, 2u);

  ProtocolSpec lying = spec;
  lying.max_rounds = 2;
  AnalysisReport report = check_soundness(lying, result, c);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations.front().kind, ViolationKind::kRoundCount);
  EXPECT_EQ(report.violations.front().value, result.rounds_used);
}

TEST(SpecSoundness, QueriesComparedAgainstClampedBound) {
  // With q = 2, a clamped strategy may never exceed 2 observed queries per
  // machine-round even though its declared envelope says w; soundness must
  // compare against min(declared, q) and pass.
  core::LineParams p = params();
  util::Rng rng(37);
  core::LineInput input = core::LineInput::random(p, rng);
  strategies::PointerChasingStrategy strat(p, strategies::OwnershipPlan::round_robin(p, 4));
  ProtocolSpec spec = strat.protocol_spec();
  mpc::MpcConfig c = documented_config(spec, 2);
  auto oracle = std::make_shared<hash::LazyRandomOracle>(64, 64, 38);
  mpc::MpcSimulation sim(c, oracle);
  auto result = sim.run(strat, strat.make_initial_memory(input));
  ASSERT_TRUE(result.completed);
  AnalysisReport report = check_soundness(spec, result, c);
  EXPECT_TRUE(report.ok()) << report.format();
  for (const auto& stats : result.trace.rounds()) {
    EXPECT_LE(stats.peak_queries.value, 2u);
  }
}

TEST(SpecSoundness, ParallelRunObservesSamePeaksAsSerial) {
  // The peak instrumentation reduces deterministically in the parallel
  // merge, so the soundness verdict cannot depend on MpcConfig::threads.
  core::LineParams p = params();
  util::Rng rng(39);
  core::LineInput input = core::LineInput::random(p, rng);
  strategies::PointerChasingStrategy strat(p, strategies::OwnershipPlan::round_robin(p, 4));
  ProtocolSpec spec = strat.protocol_spec();
  mpc::MpcConfig c = documented_config(spec, 4);

  auto run_with_threads = [&](std::uint64_t threads) {
    mpc::MpcConfig ct = c;
    ct.threads = threads;
    auto oracle = std::make_shared<hash::LazyRandomOracle>(64, 64, 40);
    mpc::MpcSimulation sim(ct, oracle);
    return sim.run(strat, strat.make_initial_memory(input));
  };
  auto serial = run_with_threads(1);
  auto parallel = run_with_threads(4);
  ASSERT_EQ(serial.trace.rounds().size(), parallel.trace.rounds().size());
  for (std::size_t i = 0; i < serial.trace.rounds().size(); ++i) {
    const auto& a = serial.trace.rounds()[i];
    const auto& b = parallel.trace.rounds()[i];
    EXPECT_EQ(a.peak_memory_bits.value, b.peak_memory_bits.value);
    EXPECT_EQ(a.peak_memory_bits.machine, b.peak_memory_bits.machine);
    EXPECT_EQ(a.peak_queries.value, b.peak_queries.value);
    EXPECT_EQ(a.peak_fan_out.value, b.peak_fan_out.value);
    EXPECT_EQ(a.peak_fan_in.value, b.peak_fan_in.value);
    EXPECT_EQ(a.peak_sent_bits.value, b.peak_sent_bits.value);
    EXPECT_EQ(a.peak_recv_bits.value, b.peak_recv_bits.value);
    EXPECT_EQ(a.peak_message_bits.value, b.peak_message_bits.value);
  }
  EXPECT_TRUE(check_soundness(spec, parallel, c).ok());
}

}  // namespace
}  // namespace mpch::analysis
