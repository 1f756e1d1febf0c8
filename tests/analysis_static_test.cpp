// The static pass: ProtocolSpec-vs-MpcConfig conformance decided without
// executing. The seeded-violation fixtures here are the checker's acceptance
// contract: a memory overflow, a query-budget overflow, a fan-in/inbox
// overflow, a routing violation, and a round-count blowup must each be
// rejected with machine/round provenance.
#include "analysis/static_checker.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "core/line.hpp"
#include "reduce/term.hpp"
#include "strategies/batch_pointer_chasing.hpp"
#include "strategies/colluding.hpp"
#include "strategies/dictionary.hpp"
#include "strategies/full_memory.hpp"
#include "strategies/pipelined_simline.hpp"
#include "strategies/pointer_chasing.hpp"
#include "strategies/ram_emulation.hpp"
#include "strategies/speculative.hpp"
#include "util/json.hpp"

namespace mpch::analysis {
namespace {

core::LineParams params(std::uint64_t w = 64) { return core::LineParams::make(64, 16, 8, w); }

const Diagnostic* find(const AnalysisReport& report, ViolationKind kind) {
  for (const auto& d : report.violations) {
    if (d.kind == kind) return &d;
  }
  return nullptr;
}

// --- the documented config itself ---

TEST(StaticChecker, DocumentedConfigTakesSFromTheLargestDeliveryOrMemory) {
  // A gather prologue: round 0 delivers more bits than any round holds at
  // its start, so that delivery sets s, not the memory envelopes.
  ProtocolSpec spec;
  spec.machines = 3;
  spec.max_rounds = 5;
  spec.prologue.resize(1);
  spec.prologue[0].memory_bits = 10;
  spec.prologue[0].recv_bits = 500;
  spec.steady.memory_bits = 100;
  spec.steady.recv_bits = 50;

  const mpc::MpcConfig c = documented_config(spec, 7);
  EXPECT_EQ(c.machines, 3u);
  EXPECT_EQ(c.max_rounds, 5u);
  EXPECT_EQ(c.query_budget, 7u);
  EXPECT_EQ(c.local_memory_bits, 500u);
  EXPECT_TRUE(check_spec(spec, c).ok());

  // A steady envelope no round reaches does not count.
  spec.max_rounds = 1;
  spec.steady.memory_bits = 1u << 20;
  EXPECT_EQ(documented_config(spec, 0).local_memory_bits, 500u);
}

// --- clean passes: every in-tree strategy under its documented config ---

TEST(StaticChecker, AllLineStrategiesPassTheirDocumentedConfig) {
  core::LineParams p = params();
  const std::uint64_t m = 4;
  auto plan = strategies::OwnershipPlan::round_robin(p, m);

  strategies::PointerChasingStrategy chase(p, plan);
  strategies::ColludingStrategy collude(p, plan);
  strategies::PipelinedSimLineStrategy pipe(p, strategies::OwnershipPlan::windows(p, m, 2));
  strategies::SpeculativeStrategy spec_strat(p, plan, {4, true},
                                             core::LineInput(p, util::BitString(p.input_bits())));
  strategies::FullMemoryStrategy full(p, plan);
  strategies::DictionaryStrategy dict(p, m);
  strategies::BatchPointerChasingStrategy batch(p, plan, 3);

  std::vector<std::pair<ProtocolSpec, std::uint64_t>> cases = {
      {chase.protocol_spec(), 4},  {collude.protocol_spec(), 4},
      {pipe.protocol_spec(), 4},   {spec_strat.protocol_spec(), 4},
      {full.protocol_spec(), p.w}, {dict.protocol_spec(), p.w},
      {batch.protocol_spec(), 4},
  };
  for (const auto& [spec, q] : cases) {
    AnalysisReport report = check_spec(spec, documented_config(spec, q));
    EXPECT_TRUE(report.ok()) << report.format();
  }
}

TEST(StaticChecker, RamEmulationPassesPlainModelWithZeroBudget) {
  strategies::RamEmulationStrategy ram({ram::asm_ops::halt()}, 4, 1, 8, 10);
  ProtocolSpec spec = ram.protocol_spec();
  EXPECT_FALSE(spec.needs_oracle);
  AnalysisReport report = check_spec(spec, documented_config(spec, 0));
  EXPECT_TRUE(report.ok()) << report.format();
}

TEST(StaticChecker, RamEmulationSpecRequiresCtorHints) {
  strategies::RamEmulationStrategy ram({ram::asm_ops::halt()}, 4);
  EXPECT_THROW(ram.protocol_spec(), std::logic_error);
}

// --- seeded violation fixtures ---

TEST(StaticChecker, RejectsMemoryOverflowWithProvenance) {
  // full-memory's round-1 footprint is the whole gathered input; shrink s
  // below it and the checker must name the gather target (machine 0).
  core::LineParams p = params();
  strategies::FullMemoryStrategy full(p, strategies::OwnershipPlan::round_robin(p, 4));
  ProtocolSpec spec = full.protocol_spec();
  mpc::MpcConfig c = documented_config(spec, p.w);
  c.local_memory_bits = full.required_local_memory() - 1;

  AnalysisReport report = check_spec(spec, c);
  ASSERT_FALSE(report.ok());
  const Diagnostic* d = find(report, ViolationKind::kMemory);
  ASSERT_NE(d, nullptr) << report.format();
  EXPECT_EQ(d->machine, 0u);  // the gather target
  EXPECT_EQ(d->round, 1u);    // the local-walk round
  EXPECT_EQ(d->value, full.required_local_memory());
  EXPECT_EQ(d->limit, c.local_memory_bits);
  EXPECT_NE(d->to_string().find("round 1, machine 0"), std::string::npos);
}

TEST(StaticChecker, RejectsQueryBudgetOverflowForUnclampedProtocols) {
  // full-memory walks all w nodes in one round and does not clamp; q < w is
  // statically impossible.
  core::LineParams p = params();
  strategies::FullMemoryStrategy full(p, strategies::OwnershipPlan::round_robin(p, 4));
  ProtocolSpec spec = full.protocol_spec();
  mpc::MpcConfig c = documented_config(spec, p.w - 1);

  AnalysisReport report = check_spec(spec, c);
  ASSERT_FALSE(report.ok());
  const Diagnostic* d = find(report, ViolationKind::kQueryBudget);
  ASSERT_NE(d, nullptr) << report.format();
  EXPECT_EQ(d->machine, 0u);
  EXPECT_EQ(d->round, 1u);
  EXPECT_EQ(d->value, p.w);
  EXPECT_EQ(d->limit, p.w - 1);
}

TEST(StaticChecker, ClampedProtocolsPassAnyPositiveBudget) {
  // pointer-chasing declares up to w queries but adapts to the budget; the
  // same q that rejects full-memory must pass here.
  core::LineParams p = params();
  strategies::PointerChasingStrategy chase(p, strategies::OwnershipPlan::round_robin(p, 4));
  ProtocolSpec spec = chase.protocol_spec();
  EXPECT_TRUE(spec.clamps_queries_to_budget);
  AnalysisReport report = check_spec(spec, documented_config(spec, 1));
  EXPECT_TRUE(report.ok()) << report.format();
}

TEST(StaticChecker, RejectsInboxOverflowWithProvenance) {
  // dictionary's round-0 delivery is the whole gathered encoding; a config
  // whose s admits the round-start memory but not the delivery must be
  // rejected as an inbox-capacity violation at round 0, machine 0.
  core::LineParams p = params();
  strategies::DictionaryStrategy dict(p, 4);
  ProtocolSpec spec = dict.protocol_spec();
  mpc::MpcConfig c = documented_config(spec, p.w);
  c.local_memory_bits = spec.prologue[0].recv_bits - 1;

  AnalysisReport report = check_spec(spec, c);
  ASSERT_FALSE(report.ok());
  const Diagnostic* d = find(report, ViolationKind::kInboxCapacity);
  ASSERT_NE(d, nullptr) << report.format();
  EXPECT_EQ(d->machine, 0u);
  EXPECT_EQ(d->round, 0u);
  EXPECT_EQ(d->value, spec.prologue[0].recv_bits);
}

TEST(StaticChecker, RejectsRoutingToNonexistentMachines) {
  // A spec built for 8 machines cannot run on a 4-machine config: some
  // destination indices would be out of range.
  core::LineParams p = params();
  strategies::PointerChasingStrategy chase(p, strategies::OwnershipPlan::round_robin(p, 8));
  ProtocolSpec spec = chase.protocol_spec();
  mpc::MpcConfig c = documented_config(spec, 4);
  c.machines = 4;

  AnalysisReport report = check_spec(spec, c);
  ASSERT_FALSE(report.ok());
  const Diagnostic* d = find(report, ViolationKind::kRouting);
  ASSERT_NE(d, nullptr) << report.format();
  EXPECT_EQ(d->machine, 7u);  // highest addressed machine
  EXPECT_EQ(d->limit, 4u);
}

TEST(StaticChecker, RejectsRoundCountBlowup) {
  core::LineParams p = params(256);
  strategies::PointerChasingStrategy chase(p, strategies::OwnershipPlan::round_robin(p, 4));
  ProtocolSpec spec = chase.protocol_spec();
  mpc::MpcConfig c = documented_config(spec, 4);
  c.max_rounds = 50;

  AnalysisReport report = check_spec(spec, c);
  ASSERT_FALSE(report.ok());
  const Diagnostic* d = find(report, ViolationKind::kRoundCount);
  ASSERT_NE(d, nullptr) << report.format();
  EXPECT_EQ(d->value, 256u);
  EXPECT_EQ(d->limit, 50u);
}

TEST(StaticChecker, RejectsOracleProtocolUnderZeroBudget) {
  core::LineParams p = params();
  strategies::PointerChasingStrategy chase(p, strategies::OwnershipPlan::round_robin(p, 4));
  ProtocolSpec spec = chase.protocol_spec();
  AnalysisReport report = check_spec(spec, documented_config(spec, 0));
  ASSERT_FALSE(report.ok());
  EXPECT_NE(find(report, ViolationKind::kOracleMissing), nullptr) << report.format();
}

TEST(StaticChecker, ThrowsOnMalformedSpec) {
  ProtocolSpec spec;
  spec.protocol = "broken";
  spec.machines = 0;
  spec.max_rounds = 1;
  mpc::MpcConfig c;
  c.machines = 1;
  EXPECT_THROW(check_spec(spec, c), std::invalid_argument);
  spec.machines = 1;
  spec.max_rounds = 0;
  EXPECT_THROW(check_spec(spec, c), std::invalid_argument);
}

TEST(StaticChecker, MalformedSpecErrorNamesTheProtocol) {
  ProtocolSpec spec;
  spec.protocol = "zero-machine-proto";
  spec.machines = 0;
  spec.max_rounds = 1;
  mpc::MpcConfig c;
  c.machines = 4;
  try {
    check_spec(spec, c);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("zero-machine-proto"), std::string::npos) << e.what();
  }
}

TEST(StaticChecker, EnvelopeExactlyAtTheBudgetPasses) {
  // Conformance is <=, not <: a spec that meets every bound exactly is legal,
  // and one bit/query over any single bound is not.
  ProtocolSpec spec;
  spec.protocol = "boundary";
  spec.machines = 4;
  spec.max_rounds = 10;
  spec.needs_oracle = true;
  spec.steady.memory_bits = 100;
  spec.steady.recv_bits = 100;
  spec.steady.oracle_queries = 7;

  mpc::MpcConfig c;
  c.machines = 4;
  c.max_rounds = 10;
  c.local_memory_bits = 100;
  c.query_budget = 7;
  EXPECT_TRUE(check_spec(spec, c).ok());

  ProtocolSpec over = spec;
  over.steady.memory_bits = 101;
  EXPECT_NE(find(check_spec(over, c), ViolationKind::kMemory), nullptr);
  over = spec;
  over.steady.oracle_queries = 8;
  EXPECT_NE(find(check_spec(over, c), ViolationKind::kQueryBudget), nullptr);
  over = spec;
  over.steady.recv_bits = 101;
  EXPECT_NE(find(check_spec(over, c), ViolationKind::kInboxCapacity), nullptr);
}

TEST(StaticChecker, OracleMissingDiagnosticExplainsItself) {
  core::LineParams p = params();
  strategies::PointerChasingStrategy chase(p, strategies::OwnershipPlan::round_robin(p, 4));
  ProtocolSpec spec = chase.protocol_spec();
  AnalysisReport report = check_spec(spec, documented_config(spec, 0));
  const Diagnostic* d = find(report, ViolationKind::kOracleMissing);
  ASSERT_NE(d, nullptr) << report.format();
  EXPECT_NE(d->message.find("oracle"), std::string::npos) << d->message;
}

TEST(StaticChecker, EffectiveQueryBoundClampsOnlyWhenDeclared) {
  ProtocolSpec spec;
  spec.steady.oracle_queries = 100;
  mpc::MpcConfig c;
  c.query_budget = 7;
  spec.clamps_queries_to_budget = true;
  EXPECT_EQ(effective_query_bound(spec, spec.steady, c), 7u);
  spec.clamps_queries_to_budget = false;
  EXPECT_EQ(effective_query_bound(spec, spec.steady, c), 100u);
}

TEST(StaticChecker, PrologueRoundsCheckedIndividually) {
  // A spec whose prologue fits but whose steady state overflows must point
  // at the first steady round, not round 0.
  ProtocolSpec spec;
  spec.protocol = "synthetic";
  spec.machines = 2;
  spec.max_rounds = 10;
  RoundEnvelope small;
  small.memory_bits = 10;
  spec.prologue.push_back(small);
  spec.steady.memory_bits = 1000;
  spec.steady.witness_machine = 1;

  mpc::MpcConfig c;
  c.machines = 2;
  c.local_memory_bits = 100;
  c.max_rounds = 10;
  AnalysisReport report = check_spec(spec, c);
  ASSERT_FALSE(report.ok());
  const Diagnostic* d = find(report, ViolationKind::kMemory);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->round, 1u);  // first round the steady envelope governs
  EXPECT_EQ(d->machine, 1u);
}

TEST(StaticChecker, ReportJsonCarriesEveryDiagnosticField) {
  ProtocolSpec spec;
  spec.protocol = "synthetic \"quoted\"";
  spec.machines = 2;
  spec.max_rounds = 10;
  spec.steady.memory_bits = 1000;
  spec.steady.witness_machine = 1;

  mpc::MpcConfig c;
  c.machines = 2;
  c.local_memory_bits = 100;
  c.max_rounds = 10;
  AnalysisReport report = check_spec(spec, c);
  ASSERT_FALSE(report.ok());

  util::JsonWriter w;
  report.to_json(w);
  const std::string json = w.str();
  // The protocol name is escaped, ok is false, and the diagnostic carries
  // kind/round/machine/value/limit/message — the same fields format() prints.
  EXPECT_NE(json.find("\"protocol\":\"synthetic \\\"quoted\\\"\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ok\":false"), std::string::npos) << json;
  EXPECT_NE(json.find("\"kind\":\"memory\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"machine\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"value\":1000"), std::string::npos) << json;
  EXPECT_NE(json.find("\"limit\":100"), std::string::npos) << json;
  EXPECT_NE(json.find("\"message\":\""), std::string::npos) << json;
}

TEST(StaticChecker, CleanReportJsonHasEmptyViolations) {
  ProtocolSpec spec;
  spec.protocol = "clean";
  spec.machines = 2;
  spec.max_rounds = 2;
  spec.steady.memory_bits = 8;

  mpc::MpcConfig c;
  c.machines = 2;
  c.local_memory_bits = 100;
  c.max_rounds = 2;
  AnalysisReport report = check_spec(spec, c);
  ASSERT_TRUE(report.ok());
  util::JsonWriter w;
  report.to_json(w);
  EXPECT_EQ(w.str(), "{\"protocol\":\"clean\",\"ok\":true,\"violations\":[]}");
}

// --- interval edges where check_spec meets the reduction calculus ---

TEST(StaticCheckerIntervalEdges, ExactBudgetBoundaryAfterSpaceScale) {
  // <= survives the transfer function: a spec sitting exactly on its budget
  // after space_scale(c) still passes, and one extra source bit (c over
  // after scaling) fails — the reduction calculus does not erode the
  // boundary semantics.
  ProtocolSpec spec;
  spec.protocol = "boundary-scaled";
  spec.machines = 4;
  spec.max_rounds = 10;
  spec.steady.memory_bits = 25;
  spec.steady.recv_bits = 20;

  mpc::MpcConfig c;
  c.machines = 4;
  c.max_rounds = 10;
  c.local_memory_bits = 100;  // 25 * 4, exactly
  const ProtocolSpec scaled =
      reduce::apply_term(reduce::Term::space_scale(4), spec).spec;
  EXPECT_EQ(scaled.steady.memory_bits, 100u);
  EXPECT_TRUE(check_spec(scaled, c).ok());

  ProtocolSpec over = spec;
  over.steady.memory_bits = 26;  // scales to 104 > 100
  const ProtocolSpec over_scaled =
      reduce::apply_term(reduce::Term::space_scale(4), over).spec;
  const AnalysisReport report = check_spec(over_scaled, c);
  const Diagnostic* d = find(report, ViolationKind::kMemory);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->value, 104u);
  EXPECT_EQ(d->limit, 100u);
}

TEST(StaticCheckerIntervalEdges, ZeroRoundSpecsAreMalformedEverywhere) {
  // check_spec, check_spec_dominance, and apply_term share the contract:
  // zero rounds (or machines) is a malformed spec, not a vacuous pass.
  ProtocolSpec zero;
  zero.protocol = "zero-rounds";
  zero.machines = 2;
  zero.max_rounds = 0;
  mpc::MpcConfig c;
  c.machines = 2;
  EXPECT_THROW(check_spec(zero, c), std::invalid_argument);
  EXPECT_THROW(reduce::apply_term(reduce::Term::identity(), zero), std::invalid_argument);
}

TEST(StaticCheckerIntervalEdges, OverflowSaturatesInsteadOfWrapping) {
  // The hostile case the saturating arithmetic exists for: a near-kMax
  // envelope pushed through a scale factor must land at kMax (always
  // rejected against any real budget), never wrap to a tiny bound that
  // would admit the protocol.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  ProtocolSpec huge;
  huge.protocol = "huge";
  huge.machines = 4;
  huge.max_rounds = 2;
  huge.steady.memory_bits = kMax / 2 + 1;

  const reduce::ApplyResult scaled =
      reduce::apply_term(reduce::Term::space_scale(2), huge);
  EXPECT_TRUE(scaled.saturated);
  EXPECT_EQ(scaled.spec.steady.memory_bits, kMax);

  mpc::MpcConfig c;
  c.machines = 4;
  c.max_rounds = 2;
  c.local_memory_bits = 1 << 20;
  const AnalysisReport report = check_spec(scaled.spec, c);
  const Diagnostic* d = find(report, ViolationKind::kMemory);
  ASSERT_NE(d, nullptr) << "a wrapped (tiny) bound would have been admitted";
  EXPECT_EQ(d->value, kMax);
}

TEST(StaticCheckerIntervalEdges, DominanceRejectsSaturatedInner) {
  // Dominance direction: a saturated *inner* spec can never hide inside a
  // finite outer envelope.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  ProtocolSpec outer;
  outer.protocol = "outer";
  outer.machines = 4;
  outer.max_rounds = 8;
  outer.steady.memory_bits = 1000;
  ProtocolSpec inner = outer;
  inner.protocol = "inner";
  inner.steady.memory_bits = kMax;
  EXPECT_NE(find(check_spec_dominance(inner, outer), ViolationKind::kMemory), nullptr);
  // And a saturated outer dominates everything — sound, just not tight.
  ProtocolSpec top = outer;
  top.steady.memory_bits = kMax;
  top.steady.recv_bits = kMax;
  top.steady.sent_bits = kMax;
  EXPECT_TRUE(check_spec_dominance(outer, top).ok());
}

}  // namespace
}  // namespace mpch::analysis
