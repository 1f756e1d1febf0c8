// Envelope inference and the sandwich acceptance check:
//
//   observed RoundStats peaks  <=  inferred spec  <=  hand-declared spec
//
// The left inequality is check_soundness over an instrumented emulation run
// with the verifier-derived hints; the right is check_spec_dominance against
// a spec built from generous hand-fed hints. Both sides are asserted here on
// the pointer-chasing corpus program, the one whose bounds genuinely need the
// abstract interpreter (data-dependent addressing).
#include "verify/envelope.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/spec_soundness.hpp"
#include "analysis/static_checker.hpp"
#include "mpc/simulation.hpp"
#include "ram/machine.hpp"
#include "ram/programs.hpp"
#include "strategies/ram_emulation.hpp"
#include "verify/abstract_interpreter.hpp"

namespace mpch::verify {
namespace {

using namespace ram::asm_ops;

std::vector<std::uint64_t> ring_memory(std::size_t n) {
  std::vector<std::uint64_t> memory(n);
  for (std::size_t i = 0; i < n; ++i) memory[i] = (i + 1) % n;
  return memory;
}

TEST(VerifyEnvelope, SandwichObservedInferredDeclared) {
  const auto memory = ring_memory(16);
  const auto prog = ram::programs::pointer_chase(8);
  const ProgramFacts facts = analyze_program(prog, MemoryModel::from_words(memory));
  ASSERT_TRUE(facts.terminates) << facts.summary();

  const std::uint64_t machines = 4;
  const InferredRamSpec inferred = infer_ram_emulation_spec(prog, facts, machines, 1);
  EXPECT_EQ(inferred.memory_words, facts.touched_words);
  EXPECT_EQ(inferred.max_steps, facts.max_steps);

  // Upper half: the inferred envelope fits under a hand-declared spec built
  // from generous hints (64 steps >= the proven bound of ~50).
  strategies::RamEmulationStrategy declared_strategy(prog, machines, 1, memory.size(), 64);
  const analysis::ProtocolSpec declared = declared_strategy.protocol_spec();
  const analysis::AnalysisReport dominance =
      analysis::check_spec_dominance(inferred.spec, declared);
  EXPECT_TRUE(dominance.ok()) << dominance.format();

  // Lower half: run the emulation instrumented under the inferred spec's own
  // config and assert every observed per-round peak fits the envelope.
  strategies::RamEmulationStrategy strategy(prog, machines, 1, inferred.memory_words,
                                            inferred.max_steps);
  const mpc::MpcConfig config = analysis::documented_config(inferred.spec, 0);
  mpc::MpcSimulation sim(config, nullptr);
  mpc::MpcRunResult result = sim.run(strategy, strategy.make_initial_memory(memory));
  ASSERT_TRUE(result.completed);
  const analysis::AnalysisReport sound =
      analysis::check_soundness(inferred.spec, result, config);
  EXPECT_TRUE(sound.ok()) << sound.format();

  // And the emulated machine computed the same thing as native execution.
  ram::RamMachine native(prog, memory);
  native.run();
  EXPECT_TRUE(strategies::RamEmulationStrategy::parse_output(result.output) == native.state());
}

TEST(VerifyEnvelope, SandwichHoldsForEveryCorpusProgram) {
  for (const auto& entry : ram::programs::corpus()) {
    const ProgramFacts facts =
        analyze_program(entry.program, MemoryModel::from_words(entry.memory));
    ASSERT_TRUE(facts.terminates) << entry.name;
    const InferredRamSpec inferred =
        infer_ram_emulation_spec(entry.program, facts, 4, entry.steps_per_round);

    strategies::RamEmulationStrategy strategy(entry.program, 4, entry.steps_per_round,
                                              inferred.memory_words, inferred.max_steps);
    const mpc::MpcConfig config = analysis::documented_config(inferred.spec, 0);
    mpc::MpcSimulation sim(config, nullptr);
    mpc::MpcRunResult result = sim.run(strategy, strategy.make_initial_memory(entry.memory));
    ASSERT_TRUE(result.completed) << entry.name;
    const analysis::AnalysisReport sound =
        analysis::check_soundness(inferred.spec, result, config);
    EXPECT_TRUE(sound.ok()) << entry.name << ":\n" << sound.format();
  }
}

TEST(VerifyEnvelope, TighterDeclaredSpecFailsDominance) {
  const auto memory = ring_memory(16);
  const auto prog = ram::programs::pointer_chase(8);
  const ProgramFacts facts = analyze_program(prog, MemoryModel::from_words(memory));
  ASSERT_TRUE(facts.terminates);
  const InferredRamSpec inferred = infer_ram_emulation_spec(prog, facts, 4, 1);

  // A hand-declared bound of 10 steps is *below* the proven worst case: the
  // inferred spec cannot fit inside it, and the round-count check says why.
  strategies::RamEmulationStrategy tight(prog, 4, 1, memory.size(), 10);
  const analysis::AnalysisReport dominance =
      analysis::check_spec_dominance(inferred.spec, tight.protocol_spec());
  EXPECT_FALSE(dominance.ok());
  EXPECT_TRUE(std::any_of(dominance.violations.begin(), dominance.violations.end(),
                          [](const analysis::Diagnostic& d) {
                            return d.kind == analysis::ViolationKind::kRoundCount;
                          }))
      << dominance.format();
}

TEST(VerifyEnvelope, InferenceRequiresATerminationProof) {
  const ProgramFacts facts = analyze_program({jmp(0)}, MemoryModel{});
  ASSERT_FALSE(facts.terminates);
  EXPECT_THROW(infer_ram_emulation_spec({jmp(0)}, facts, 4, 1), std::invalid_argument);
}

TEST(VerifyEnvelope, DominanceReportsFieldwiseViolations) {
  analysis::ProtocolSpec inner;
  inner.protocol = "inner";
  inner.machines = 4;
  inner.max_rounds = 10;
  inner.needs_oracle = true;
  inner.steady = {128, 3, 2, 2, 64, 64, 32, 0};

  analysis::ProtocolSpec outer = inner;
  outer.protocol = "outer";
  outer.needs_oracle = false;
  outer.steady = {64, 1, 2, 2, 64, 64, 32, 0};  // less memory, fewer queries

  const analysis::AnalysisReport report = analysis::check_spec_dominance(inner, outer);
  EXPECT_FALSE(report.ok());
  auto count = [&](analysis::ViolationKind kind) {
    return std::count_if(report.violations.begin(), report.violations.end(),
                         [kind](const analysis::Diagnostic& d) { return d.kind == kind; });
  };
  EXPECT_EQ(count(analysis::ViolationKind::kMemory), 1);
  EXPECT_EQ(count(analysis::ViolationKind::kQueryBudget), 1);
  EXPECT_EQ(count(analysis::ViolationKind::kOracleMissing), 1);
  EXPECT_EQ(count(analysis::ViolationKind::kRouting), 0);
}

TEST(VerifyEnvelope, DominanceIsReflexive) {
  analysis::ProtocolSpec spec;
  spec.protocol = "self";
  spec.machines = 4;
  spec.max_rounds = 5;
  spec.steady = {128, 0, 2, 2, 64, 64, 32, 0};
  EXPECT_TRUE(analysis::check_spec_dominance(spec, spec).ok());
}

TEST(VerifyEnvelope, DominanceThrowsOnZeroMachines) {
  analysis::ProtocolSpec good;
  good.protocol = "good";
  good.machines = 2;
  good.max_rounds = 1;
  analysis::ProtocolSpec bad;
  bad.protocol = "bad";
  bad.machines = 0;
  bad.max_rounds = 1;
  EXPECT_THROW(analysis::check_spec_dominance(bad, good), std::invalid_argument);
  EXPECT_THROW(analysis::check_spec_dominance(good, bad), std::invalid_argument);
}

}  // namespace
}  // namespace mpch::verify
