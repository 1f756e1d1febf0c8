// Tests for the ServeService execution engine (serve/service.hpp): budget
// admission rejects with static-checker provenance before running, every
// job runs exactly once at any worker count, repeated seeds in one pool
// give identical results, and every verb produces the result surfaces the
// CLI reports.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "analysis/static_checker.hpp"
#include "mpc/auth.hpp"
#include "serve/job_spec.hpp"
#include "serve/scenario.hpp"
#include "serve/service.hpp"
#include "util/json.hpp"

namespace {

using mpch::serve::JobResult;
using mpch::serve::JobSpec;
using mpch::serve::JobStatus;
using mpch::serve::JobVerb;
using mpch::serve::ServeOptions;
using mpch::serve::ServeService;

JobSpec simulate_spec(const std::string& strategy, std::uint64_t seed) {
  JobSpec spec;
  spec.verb = JobVerb::kSimulate;
  spec.strategy = strategy;
  spec.seed = seed;
  spec.source_line = 1;
  return spec;
}

TEST(ServeService, BudgetRejectionCarriesProvenance) {
  JobSpec spec = simulate_spec("dictionary", 11);
  spec.budget_bits = 512;  // dictionary's declared gather is far larger
  spec.source_line = 7;
  ServeService service(ServeOptions{1});
  auto results = service.run_jobs({spec});
  ASSERT_EQ(results.size(), 1u);
  const JobResult& r = results[0];
  EXPECT_EQ(r.status, JobStatus::kRejected);
  // The job never executed: no rounds, no oracle, and the admission report
  // carries the static checker's diagnostics with machine/round provenance.
  EXPECT_FALSE(r.run.completed);
  EXPECT_EQ(r.oracle, nullptr);
  ASSERT_FALSE(r.admission.violations.empty());
  EXPECT_NE(r.error.find("line 7"), std::string::npos) << r.error;
  EXPECT_NE(r.error.find("512"), std::string::npos) << r.error;
  EXPECT_EQ(service.stats().rejected, 1u);
  EXPECT_EQ(service.stats().ok, 0u);
}

TEST(ServeService, GenerousBudgetAdmits) {
  JobSpec spec = simulate_spec("pointer-chasing", 11);
  spec.budget_bits = 1 << 20;
  auto results = ServeService(ServeOptions{1}).run_jobs({spec});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, JobStatus::kOk);
  EXPECT_TRUE(results[0].admission.ok());
  EXPECT_TRUE(results[0].run.completed);
}

TEST(ServeService, AuthenticatedAdmissionUsesTheSharedLift) {
  // Regression for the auth-envelope dedup: serve's admission now lifts the
  // declared spec through the reduce-calculus with_authentication term. The
  // rejection decision and its static-checker provenance must be
  // byte-identical to the direct ProtocolSpec::with_authentication path.
  mpch::serve::Scenario sc = mpch::serve::make_scenario("pointer-chasing", 11, 0);
  auto* provider =
      dynamic_cast<mpch::analysis::ProtocolSpecProvider*>(sc.algo.get());
  ASSERT_NE(provider, nullptr);
  const mpch::analysis::ProtocolSpec lifted =
      provider->protocol_spec().with_authentication(mpch::mpc::kMessageTagBits);

  // A budget between the plain and lifted envelopes: admitted without
  // authentication, rejected with it.
  const std::uint64_t plain_worst =
      mpch::analysis::documented_config(provider->protocol_spec(), 0).local_memory_bits;
  const std::uint64_t lifted_worst =
      mpch::analysis::documented_config(lifted, 0).local_memory_bits;
  ASSERT_LT(plain_worst, lifted_worst);
  const std::uint64_t budget = (plain_worst + lifted_worst) / 2;

  JobSpec plain = simulate_spec("pointer-chasing", 11);
  plain.budget_bits = budget;
  auto admitted = ServeService(ServeOptions{1}).run_jobs({plain});
  ASSERT_EQ(admitted.size(), 1u);
  EXPECT_EQ(admitted[0].status, JobStatus::kOk);

  JobSpec authed = plain;
  authed.authenticate = true;
  authed.source_line = 5;
  auto rejected = ServeService(ServeOptions{1}).run_jobs({authed});
  ASSERT_EQ(rejected.size(), 1u);
  EXPECT_EQ(rejected[0].status, JobStatus::kRejected);
  EXPECT_NE(rejected[0].error.find("line 5"), std::string::npos) << rejected[0].error;

  // Byte-identical provenance: recompute the admission report the pre-dedup
  // way (direct lift, budgeted config) and compare the formatted output.
  mpch::mpc::MpcConfig admission_config = sc.config;
  admission_config.authenticate_messages = true;
  admission_config.local_memory_bits = budget;
  const mpch::analysis::AnalysisReport expected =
      mpch::analysis::check_spec(lifted, admission_config);
  EXPECT_FALSE(expected.ok());
  EXPECT_EQ(rejected[0].admission.format(), expected.format());
  mpch::util::JsonWriter got_json;
  mpch::util::JsonWriter expected_json;
  rejected[0].admission.to_json(got_json);
  expected.to_json(expected_json);
  EXPECT_EQ(got_json.str(), expected_json.str());
}

TEST(ServeService, UnknownStrategyFailsTyped) {
  auto results = ServeService().run_jobs({simulate_spec("nonesuch", 1)});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, JobStatus::kFailed);
  EXPECT_NE(results[0].error.find("unknown strategy"), std::string::npos) << results[0].error;
}

TEST(ServeService, EveryJobRunsOnceWhateverTheWorkerCount) {
  // Workers claim job indices from one counter: no job is skipped or run
  // twice, results come back in jobfile order, and each names a real
  // worker, whether workers outnumber jobs or not.
  EXPECT_TRUE(ServeService(ServeOptions{4}).run_jobs({}).empty());
  std::vector<JobSpec> jobs;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    jobs.push_back(simulate_spec("ram-emulation", seed));
  }
  for (const std::uint64_t workers : {1u, 2u, 8u}) {
    ServeService service(ServeOptions{workers});
    auto results = service.run_jobs(jobs);
    ASSERT_EQ(results.size(), jobs.size()) << workers << " worker(s)";
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i].job_id, i) << workers << " worker(s)";
      EXPECT_EQ(results[i].spec.seed, jobs[i].seed) << workers << " worker(s)";
      EXPECT_EQ(results[i].status, JobStatus::kOk) << results[i].error;
      EXPECT_LT(results[i].worker, workers);
    }
    EXPECT_EQ(service.stats().ok, jobs.size()) << workers << " worker(s)";
  }
}

TEST(ServeService, RepeatedSeedsInOnePoolMatchStandalone) {
  // Same strategy + seed twice in one pool: each job derives its own oracle
  // answers, so both are bit-identical to a standalone run.
  const JobSpec spec = simulate_spec("pointer-chasing", 11);
  const JobResult ref = ServeService::run_standalone(spec);
  ASSERT_EQ(ref.status, JobStatus::kOk) << ref.error;
  ServeService service(ServeOptions{2});
  auto results = service.run_jobs({spec, spec});
  ASSERT_EQ(results.size(), 2u);
  for (const JobResult& r : results) {
    ASSERT_EQ(r.status, JobStatus::kOk) << r.error;
    ASSERT_NE(r.oracle, nullptr);
    EXPECT_TRUE(
        mpch::serve::artifact_mismatches(ref.run, ref.oracle.get(), r.run, r.oracle.get())
            .empty());
  }
}

TEST(ServeService, TouchedTableKeysAreTheTranscriptInputs) {
  // What lets a checkpoint store the transcript as the oracle's only
  // record: a job's oracle materialises exactly the inputs its transcript
  // records and counts exactly its records, for every strategy and for a
  // run restored from a checkpoint.
  std::vector<JobSpec> jobs;
  for (const std::string& strategy : mpch::serve::strategy_names()) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) jobs.push_back(simulate_spec(strategy, seed));
  }
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    JobSpec chaos = simulate_spec("pointer-chasing", seed);
    chaos.verb = JobVerb::kChaos;
    chaos.plan = "kill:round=4";
    chaos.policy = "restart";
    chaos.every = 2;
    jobs.push_back(chaos);
  }
  for (const JobResult& r : ServeService(ServeOptions{2}).run_jobs(jobs)) {
    ASSERT_EQ(r.status, JobStatus::kOk) << r.spec.describe() << ": " << r.error;
    EXPECT_TRUE(r.spec.verb != JobVerb::kChaos || r.cost.recoveries >= 1) << r.spec.describe();
    if (r.oracle == nullptr) continue;  // plain-model strategy
    std::set<mpch::util::BitString> inputs, keys;
    for (const auto& rec : r.run.transcript->records()) inputs.insert(rec.input);
    for (const auto& [input, output] : r.oracle->touched_table()) keys.insert(input);
    EXPECT_FALSE(keys.empty()) << r.spec.describe();
    EXPECT_EQ(inputs, keys) << r.spec.describe();
    EXPECT_EQ(r.oracle->total_queries(), r.run.transcript->size()) << r.spec.describe();
  }
}

TEST(ServeService, BufferReuseRecyclesAcrossJobs) {
  std::vector<JobSpec> jobs;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    jobs.push_back(simulate_spec("pointer-chasing", seed));
  }
  ServeService service(ServeOptions{1});
  auto results = service.run_jobs(jobs);
  for (const auto& r : results) EXPECT_EQ(r.status, JobStatus::kOk) << r.error;
  // Rounds far outnumber jobs, so steady-state acquires must be reuses.
  EXPECT_GT(service.stats().arena_reuses, service.stats().arena_allocations);
}

TEST(ServeService, VerifyVerbRunsSoundnessCheck) {
  JobSpec spec = simulate_spec("ram-emulation", 7);
  spec.verb = JobVerb::kVerify;
  auto results = ServeService().run_jobs({spec});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, JobStatus::kOk) << results[0].error;
  EXPECT_TRUE(results[0].soundness.ok());
  EXPECT_TRUE(results[0].run.completed);
}

TEST(ServeService, ChaosVerbRecoversAndVerifies) {
  JobSpec spec = simulate_spec("pointer-chasing", 11);
  spec.verb = JobVerb::kChaos;
  spec.plan = "kill:round=4";
  spec.policy = "restart";
  spec.every = 2;
  auto results = ServeService().run_jobs({spec});
  ASSERT_EQ(results.size(), 1u);
  const JobResult& r = results[0];
  EXPECT_EQ(r.status, JobStatus::kOk) << r.error;
  EXPECT_TRUE(r.mismatches.empty());
  EXPECT_FALSE(r.fault_log.empty());
  EXPECT_GE(r.cost.faults_injected, 1u);
  EXPECT_GE(r.cost.recoveries, 1u);
}

TEST(ServeService, ChaosVerbFailsAnUnknownPolicyByName) {
  // A JobSpec built in code skips the jobfile parser's name check; the
  // policy dispatch itself must refuse the name, not fall through to a
  // policy it does not name.
  JobSpec spec = simulate_spec("pointer-chasing", 11);
  spec.verb = JobVerb::kChaos;
  spec.plan = "kill:round=4";
  spec.policy = "ostrich";
  const JobResult r = ServeService::run_standalone(spec);
  EXPECT_EQ(r.status, JobStatus::kFailed);
  EXPECT_EQ(r.error, "unknown policy 'ostrich' (want restart|replicate|quarantine)");
  EXPECT_EQ(r.cost.attestation_checks, 0u);
}

TEST(ServeService, ResultsKeepJobfileOrderAcrossWorkers) {
  std::vector<JobSpec> jobs;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    jobs.push_back(simulate_spec("ram-emulation", seed));
    jobs.back().source_line = seed;
  }
  auto results = ServeService(ServeOptions{4}).run_jobs(jobs);
  ASSERT_EQ(results.size(), jobs.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].job_id, i);
    EXPECT_EQ(results[i].spec.seed, jobs[i].seed);
  }
}

}  // namespace
