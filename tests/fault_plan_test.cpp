// fault_plan_test.cpp — the fault-plan grammar, its error reporting (every
// parse failure quotes the offending token), event provenance text, and the
// seed-determinism of randomly generated plans.
#include "fault/fault_plan.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace mpch {
namespace {

using fault::FaultKind;
using fault::FaultPlan;

TEST(FaultPlan, ParsesEveryKind) {
  FaultPlan plan = FaultPlan::parse(
      "crash:machine=2,round=3;drop:round=1,to=0,index=4;dup:round=7,to=3,index=0;kill:round=9");
  ASSERT_EQ(plan.events.size(), 4u);

  EXPECT_EQ(plan.events[0].kind, FaultKind::CrashMachine);
  EXPECT_EQ(plan.events[0].machine, 2u);
  EXPECT_EQ(plan.events[0].round, 3u);

  EXPECT_EQ(plan.events[1].kind, FaultKind::DropMessage);
  EXPECT_EQ(plan.events[1].round, 1u);
  EXPECT_EQ(plan.events[1].machine, 0u);
  EXPECT_EQ(plan.events[1].index, 4u);

  EXPECT_EQ(plan.events[2].kind, FaultKind::DuplicateMessage);
  EXPECT_EQ(plan.events[3].kind, FaultKind::KillSimulation);
  EXPECT_EQ(plan.events[3].round, 9u);
}

TEST(FaultPlan, DescribeGivesProvenanceText) {
  EXPECT_EQ(FaultPlan::parse("crash:machine=2,round=3").events[0].describe(),
            "crash machine 2 in round 3");
  EXPECT_EQ(FaultPlan::parse("drop:round=1,to=0,index=4").events[0].describe(),
            "drop message 4 delivered to machine 0 after round 1");
  EXPECT_EQ(FaultPlan::parse("dup:round=7,to=3,index=0").events[0].describe(),
            "duplicate message 0 delivered to machine 3 after round 7");
  EXPECT_EQ(FaultPlan::parse("kill:round=9").events[0].describe(),
            "kill the simulation before round 9");
}

void expect_parse_error(const std::string& spec, const std::string& needle) {
  try {
    FaultPlan::parse(spec);
    FAIL() << "parsed '" << spec << "'";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << spec << " -> " << e.what();
  }
}

TEST(FaultPlan, MalformedSpecsAreRejectedWithTheOffendingToken) {
  expect_parse_error("", "no events");
  expect_parse_error(";;", "no events");
  expect_parse_error("melt:round=1", "unknown fault kind 'melt'");
  expect_parse_error("crash:round=3", "missing 'machine='");
  expect_parse_error("crash:machine=1", "missing 'round='");
  expect_parse_error("kill:round=1,extra=2", "unknown key 'extra'");
  expect_parse_error("kill:round=banana", "not a number");
  expect_parse_error("kill:round=1x", "not a number");
  expect_parse_error("crash:machine=1,=3", "expected key=value");
  // The failing token is quoted even in a multi-event spec.
  expect_parse_error("kill:round=1;crash:machine=0", "'crash:machine=0'");
}

TEST(FaultPlan, ValuesAreUnsignedDecimalsAndKeysAppearOnce) {
  expect_parse_error("crash:machine=-1,round=3", "value of 'machine' is not a number");
  expect_parse_error("crash:machine=1,round=+3", "value of 'round' is not a number");
  expect_parse_error("crash:machine=1,round= 3", "value of 'round' is not a number");
  expect_parse_error("crash:machine=1,machine=2,round=3", "repeated key 'machine'");
}

TEST(FaultPlan, EventCountPastTheCapIsRejectedBeforeAllocation) {
  expect_parse_error("random:seed=1,events=18446744073709551615,rounds=5,machines=4", "at most");
  expect_parse_error(
      "random:seed=1,events=" + std::to_string(fault::kMaxPlanEvents + 1) + ",rounds=5,machines=4",
      "at most");
  // The cap counts the whole plan: explicit events plus random ones.
  expect_parse_error("kill:round=1;random:seed=1,events=" + std::to_string(fault::kMaxPlanEvents) +
                         ",rounds=5,machines=4",
                     "at most");
  EXPECT_THROW(FaultPlan::random(1, fault::kMaxPlanEvents + 1, 5, 4), std::invalid_argument);
  EXPECT_EQ(FaultPlan::random(1, fault::kMaxPlanEvents, 5, 4).events.size(), fault::kMaxPlanEvents);
}

TEST(FaultPlan, RandomPlansAreSeedDeterministic) {
  FaultPlan a = FaultPlan::random(42, 16, 10, 4);
  FaultPlan b = FaultPlan::random(42, 16, 10, 4);
  ASSERT_EQ(a.events.size(), 16u);
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i], b.events[i]) << i;
    EXPECT_LT(a.events[i].round, 10u) << i;
    EXPECT_LT(a.events[i].machine, 4u) << i;
  }
  FaultPlan c = FaultPlan::random(43, 16, 10, 4);
  bool any_different = false;
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    any_different = any_different || !(a.events[i] == c.events[i]);
  }
  EXPECT_TRUE(any_different) << "seed does not influence the plan";
}

TEST(FaultPlan, RandomSubPlanViaParseMatchesDirectCall) {
  FaultPlan parsed = FaultPlan::parse("random:seed=7,events=5,rounds=12,machines=3");
  FaultPlan direct = FaultPlan::random(7, 5, 12, 3);
  ASSERT_EQ(parsed.events.size(), direct.events.size());
  for (std::size_t i = 0; i < parsed.events.size(); ++i) {
    EXPECT_EQ(parsed.events[i], direct.events[i]) << i;
  }
  EXPECT_THROW(FaultPlan::random(1, 1, 0, 4), std::invalid_argument);
  EXPECT_THROW(FaultPlan::random(1, 1, 4, 0), std::invalid_argument);
}

TEST(FaultPlan, DescribeJoinsEvents) {
  FaultPlan plan = FaultPlan::parse("kill:round=2;crash:machine=1,round=4");
  EXPECT_EQ(plan.describe(),
            "kill the simulation before round 2; crash machine 1 in round 4");
}

}  // namespace
}  // namespace mpch
