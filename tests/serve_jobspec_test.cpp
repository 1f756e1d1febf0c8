// Tests for the mpch-serve jobfile grammar (serve/job_spec.hpp): accepted
// forms round-trip into the right JobSpec fields, every hostile class is
// rejected through JobSpecError with 1-based line provenance, and the
// pre-allocation caps hold before any expansion.
#include <gtest/gtest.h>

#include <string>

#include "serve/job_spec.hpp"

namespace {

using mpch::serve::JobSpec;
using mpch::serve::JobSpecError;
using mpch::serve::JobVerb;
using mpch::serve::kMaxJobs;
using mpch::serve::kMaxRepeat;
using mpch::serve::parse_jobfile;

/// Expect the parse to fail with JobSpecError naming line `line`.
void expect_rejected(const std::string& text, std::uint64_t line) {
  try {
    (void)parse_jobfile(text);
    FAIL() << "accepted: " << text;
  } catch (const JobSpecError& e) {
    EXPECT_EQ(e.line(), line) << e.what();
    EXPECT_NE(std::string(e.what()).find("line " + std::to_string(line)), std::string::npos)
        << e.what();
  }
}

TEST(JobSpec, ParsesMinimalSimulate) {
  auto jobs = parse_jobfile("simulate strategy=pointer-chasing\n");
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].verb, JobVerb::kSimulate);
  EXPECT_EQ(jobs[0].strategy, "pointer-chasing");
  EXPECT_EQ(jobs[0].seed, 1u);
  EXPECT_EQ(jobs[0].threads, 0u);
  EXPECT_FALSE(jobs[0].authenticate);
  EXPECT_EQ(jobs[0].source_line, 1u);
}

TEST(JobSpec, ParsesAllCommonKeys) {
  auto jobs = parse_jobfile(
      "verify strategy=ram-emulation seed=7 threads=4 transport=socket "
      "transport-procs=2 authenticate=true budget-bits=4096\n");
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].verb, JobVerb::kVerify);
  EXPECT_EQ(jobs[0].seed, 7u);
  EXPECT_EQ(jobs[0].threads, 4u);
  EXPECT_EQ(jobs[0].transport, mpch::transport::TransportKind::kSocket);
  EXPECT_EQ(jobs[0].transport_processes, 2u);
  EXPECT_TRUE(jobs[0].authenticate);
  EXPECT_EQ(jobs[0].budget_bits, 4096u);
}

TEST(JobSpec, ParsesChaosKeys) {
  auto jobs = parse_jobfile(
      "chaos strategy=colluding plan=kill:round=4 policy=quarantine every=3\n");
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].verb, JobVerb::kChaos);
  EXPECT_EQ(jobs[0].plan, "kill:round=4");
  EXPECT_EQ(jobs[0].policy, "quarantine");
  EXPECT_EQ(jobs[0].every, 3u);
}

TEST(JobSpec, CommentsAndBlankLinesSkipped) {
  auto jobs = parse_jobfile(
      "# a comment\n"
      "\n"
      "   \t\n"
      "simulate strategy=full-memory  # trailing comment\n"
      "\n"
      "simulate strategy=colluding\n");
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].source_line, 4u);
  EXPECT_EQ(jobs[1].source_line, 6u);
}

TEST(JobSpec, RepeatExpandsConsecutiveSeeds) {
  auto jobs = parse_jobfile("simulate strategy=pointer-chasing seed=10 repeat=4\n");
  ASSERT_EQ(jobs.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(jobs[i].seed, 10 + i);
    EXPECT_EQ(jobs[i].source_line, 1u);
  }
}

TEST(JobSpec, DescribeRoundTripsKeyFields) {
  auto jobs = parse_jobfile("chaos strategy=colluding seed=5 plan=kill:round=4\n");
  const std::string desc = jobs.at(0).describe();
  EXPECT_NE(desc.find("chaos"), std::string::npos);
  EXPECT_NE(desc.find("strategy=colluding"), std::string::npos);
  EXPECT_NE(desc.find("seed=5"), std::string::npos);
  EXPECT_NE(desc.find("plan=kill:round=4"), std::string::npos);
}

TEST(JobSpec, RejectsUnknownVerbWithProvenance) {
  expect_rejected("simulate strategy=x\nlaunch strategy=x\n", 2);
}

TEST(JobSpec, RejectsUnknownKey) { expect_rejected("simulate strategy=x frobnicate=1\n", 1); }

TEST(JobSpec, RejectsDuplicateKey) { expect_rejected("simulate strategy=x seed=1 seed=2\n", 1); }

TEST(JobSpec, RejectsMissingStrategy) { expect_rejected("simulate seed=1\n", 1); }

TEST(JobSpec, RejectsMalformedToken) { expect_rejected("simulate strategy\n", 1); }

TEST(JobSpec, RejectsNonNumericAndOverflow) {
  expect_rejected("simulate strategy=x seed=twelve\n", 1);
  expect_rejected("simulate strategy=x seed=-3\n", 1);
  expect_rejected("simulate strategy=x seed=99999999999999999999999\n", 1);
}

TEST(JobSpec, RejectsBadTransportAndBool) {
  expect_rejected("simulate strategy=x transport=carrier-pigeon\n", 1);
  expect_rejected("simulate strategy=x transport=shared-memory\n", 1);
  expect_rejected("simulate strategy=x authenticate=maybe\n", 1);
}

TEST(JobSpec, ChaosKeysRejectedOnOtherVerbs) {
  expect_rejected("simulate strategy=x plan=kill:round=1\n", 1);
  expect_rejected("verify strategy=x policy=restart\n", 1);
  expect_rejected("simulate strategy=x every=2\n", 1);
}

TEST(JobSpec, ChaosRequiresPlanAndValidPolicy) {
  expect_rejected("chaos strategy=x policy=restart\n", 1);
  expect_rejected("chaos strategy=x plan=kill:round=1 policy=ostrich\n", 1);
  expect_rejected("chaos strategy=x plan=explode:now\n", 1);  // FaultPlan grammar, wrapped
}

TEST(JobSpec, PlanValuesAreUnsignedDecimalsAndEventsCapped) {
  expect_rejected("simulate strategy=x\nchaos strategy=x plan=crash:machine=-1,round=3\n", 2);
  expect_rejected(
      "chaos strategy=pointer-chasing "
      "plan=random:seed=1,events=18446744073709551615,rounds=5,machines=4\n",
      1);
}

// The pre-allocation guards: hostile counts are a comparison, not an
// allocation.
TEST(JobSpec, HostileRepeatIsTypedRejection) {
  expect_rejected("simulate strategy=x repeat=18446744073709551615\n", 1);
  expect_rejected("simulate strategy=x repeat=" + std::to_string(kMaxRepeat + 1) + "\n", 1);
  expect_rejected("simulate strategy=x repeat=0\n", 1);
}

TEST(JobSpec, WholeFileJobCapHolds) {
  std::string text;
  const std::uint64_t lines = kMaxJobs / kMaxRepeat + 1;
  for (std::uint64_t i = 0; i <= lines; ++i) {
    text += "simulate strategy=x repeat=" + std::to_string(kMaxRepeat) + "\n";
  }
  try {
    (void)parse_jobfile(text);
    FAIL() << "file cap not enforced";
  } catch (const JobSpecError& e) {
    EXPECT_NE(std::string(e.what()).find("cap"), std::string::npos) << e.what();
  }
}

TEST(JobSpec, MaxRepeatItselfIsAccepted) {
  auto jobs = parse_jobfile("simulate strategy=x repeat=" + std::to_string(kMaxRepeat) + "\n");
  EXPECT_EQ(jobs.size(), kMaxRepeat);
}

}  // namespace
