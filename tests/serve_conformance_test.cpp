// The serve cornerstone: every JobResult coming off the worker pool — with
// per-worker buffer arenas on — is bit-identical to running the same
// JobSpec standalone, for every worker count. "Bit-identical" is the full
// artifact surface: completion, round count, output bits, per-round
// RoundStats (including the instrumented peaks), annotations, the oracle
// transcript records, the materialised oracle table, and total query
// counts — the same compare serve::artifact_mismatches gives mpch-chaos.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "serve/job_spec.hpp"
#include "serve/scenario.hpp"
#include "serve/service.hpp"

namespace {

using mpch::serve::artifact_mismatches;
using mpch::serve::JobResult;
using mpch::serve::JobSpec;
using mpch::serve::JobStatus;
using mpch::serve::JobVerb;
using mpch::serve::ServeOptions;
using mpch::serve::ServeService;

constexpr std::uint64_t kSeeds[] = {11, 22, 33};
constexpr std::uint64_t kWorkerCounts[] = {1, 2, 8};

void expect_identical(const JobResult& ref, const JobResult& got, const std::string& label) {
  ASSERT_EQ(ref.status, got.status) << label << ": " << ref.error << " vs " << got.error;
  if (ref.status == JobStatus::kRejected) return;
  const auto bad =
      artifact_mismatches(ref.run, ref.oracle.get(), got.run, got.oracle.get());
  for (const auto& b : bad) ADD_FAILURE() << label << ": " << b;
  // Chaos-verb surfaces beyond the run itself.
  EXPECT_EQ(ref.fault_log, got.fault_log) << label;
  EXPECT_EQ(ref.mismatches, got.mismatches) << label;
  EXPECT_EQ(ref.cost.faults_injected, got.cost.faults_injected) << label;
  EXPECT_EQ(ref.cost.recoveries, got.cost.recoveries) << label;
  EXPECT_EQ(ref.cost.rounds_reexecuted, got.cost.rounds_reexecuted) << label;
  EXPECT_EQ(ref.cost.checkpoints_taken, got.cost.checkpoints_taken) << label;
  // Verify-verb surface.
  EXPECT_EQ(ref.soundness.ok(), got.soundness.ok()) << label;
}

std::vector<JobSpec> conformance_jobs() {
  std::vector<JobSpec> jobs;
  for (const std::string& strategy : mpch::serve::strategy_names()) {
    for (std::uint64_t seed : kSeeds) {
      JobSpec spec;
      spec.verb = JobVerb::kSimulate;
      spec.strategy = strategy;
      spec.seed = seed;
      jobs.push_back(spec);
    }
  }
  // A few non-simulate verbs ride along so the conformance claim covers all
  // three execution paths (kept small: chaos runs are the expensive ones).
  JobSpec verify;
  verify.verb = JobVerb::kVerify;
  verify.strategy = "ram-emulation";
  verify.seed = 11;
  jobs.push_back(verify);
  JobSpec chaos;
  chaos.verb = JobVerb::kChaos;
  chaos.strategy = "pointer-chasing";
  chaos.seed = 11;
  chaos.plan = "kill:round=4";
  chaos.policy = "restart";
  chaos.every = 2;
  jobs.push_back(chaos);
  JobSpec chaos2;
  chaos2.verb = JobVerb::kChaos;
  chaos2.strategy = "colluding";
  chaos2.seed = 22;
  chaos2.plan = "crash:machine=2,round=3";
  chaos2.policy = "replicate";
  jobs.push_back(chaos2);
  return jobs;
}

TEST(ServeConformance, PoolResultsMatchStandaloneForAllWorkerCounts) {
  const std::vector<JobSpec> jobs = conformance_jobs();

  // Standalone references: one at a time, no arenas.
  std::vector<JobResult> reference;
  reference.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    reference.push_back(ServeService::run_standalone(jobs[i], i));
    ASSERT_EQ(reference.back().status, JobStatus::kOk)
        << jobs[i].describe() << ": " << reference.back().error;
  }

  for (std::uint64_t workers : kWorkerCounts) {
    ServeService service(ServeOptions{workers});
    const std::vector<JobResult> results = service.run_jobs(jobs);
    ASSERT_EQ(results.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      expect_identical(reference[i], results[i],
                       "workers=" + std::to_string(workers) + " " + jobs[i].describe());
    }
    EXPECT_GT(service.stats().arena_reuses, 0u) << "workers=" << workers;
  }
}

// Authenticated messaging changes the wire bytes (MAC tags), so conformance
// must hold there too — one strategy as a canary.
TEST(ServeConformance, AuthenticatedJobsMatchStandalone) {
  JobSpec spec;
  spec.verb = JobVerb::kSimulate;
  spec.strategy = "pointer-chasing";
  spec.seed = 11;
  spec.authenticate = true;
  const JobResult ref = ServeService::run_standalone(spec);
  ASSERT_EQ(ref.status, JobStatus::kOk) << ref.error;
  ServeService service(ServeOptions{2});
  const auto results = service.run_jobs({spec, spec});
  for (const auto& r : results) expect_identical(ref, r, "authenticated");
}

// Per-job threads change only wall time, never artifacts: a threaded job
// from the pool equals a serial standalone run.
TEST(ServeConformance, InnerThreadsDoNotChangeArtifacts) {
  JobSpec serial;
  serial.verb = JobVerb::kSimulate;
  serial.strategy = "ram-emulation";
  serial.seed = 33;
  serial.threads = 0;
  JobSpec threaded = serial;
  threaded.threads = 4;
  const JobResult ref = ServeService::run_standalone(serial);
  ASSERT_EQ(ref.status, JobStatus::kOk) << ref.error;
  ServeService service(ServeOptions{2});
  const auto results = service.run_jobs({threaded, threaded});
  for (const auto& r : results) expect_identical(ref, r, "threads=4");
}

}  // namespace
