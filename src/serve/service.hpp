// service.hpp — mpch-serve's job execution engine.
//
// A ServeService takes a batch of parsed JobSpecs and executes them on a
// fixed-size pool of worker threads that claim job indices from one atomic
// counter; each result lands in its job's pre-sized slot, so results come
// back in jobfile order. Every job builds its own oracle through
// Scenario::make_oracle: the lazily assigned RO of Lemma 3.3 is a pure
// function plus the set of inputs the job queried, and each job's
// LazyRandomOracle already holds both, so no oracle state is shared
// between jobs. Two things keep the hot path cheap without touching the
// cornerstone bit-determinism guarantee:
//
//  * Per-worker buffer arenas — each worker owns a RoundArena handed to the
//    simulations it runs, so inbox-set storage is recycled across the jobs
//    that worker executes instead of round-tripping the allocator. Arenas
//    recycle capacity only and are never shared between workers.
//
//  * Budget admission — before a job runs, its strategy's declared
//    ProtocolSpec is checked against the job's memory budget with the
//    existing static checker. A job that cannot fit is rejected with full
//    diagnostic provenance (and a distinct exit code at the CLI) before a
//    single round executes.
//
// The cornerstone invariant, proven by serve_conformance_test: every
// JobResult is bit-identical to running the same JobSpec standalone
// (run_standalone), for every worker count and with buffer reuse on.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/static_checker.hpp"
#include "fault/recovery.hpp"
#include "hash/random_oracle.hpp"
#include "mpc/arena.hpp"
#include "mpc/simulation.hpp"
#include "serve/job_spec.hpp"
#include "serve/scenario.hpp"

namespace mpch::serve {

enum class JobStatus : std::uint8_t {
  kOk,        ///< ran to completion, all verifications passed
  kRejected,  ///< refused at admission (budget/spec), never executed
  kFailed,    ///< executed but errored, diverged, or failed verification
};

const char* job_status_name(JobStatus status);

struct JobResult {
  std::uint64_t job_id = 0;
  JobSpec spec;
  JobStatus status = JobStatus::kFailed;
  std::string error;  ///< why rejected/failed; empty for kOk

  /// Static admission report (populated whenever the strategy declares a
  /// ProtocolSpec; violations non-empty exactly for kRejected).
  analysis::AnalysisReport admission;
  /// verify-verb only: declared-spec-vs-observed-peaks report.
  analysis::AnalysisReport soundness;

  mpc::MpcRunResult run;  ///< valid when the job executed (status != kRejected)
  std::shared_ptr<hash::LazyRandomOracle> oracle;  ///< null for plain-model jobs

  // chaos-verb artifacts.
  fault::RecoveryCost cost;
  std::vector<std::string> fault_log;
  std::vector<std::string> mismatches;  ///< recovered-vs-reference differences

  double wall_ms = 0;
  std::uint64_t worker = 0;  ///< pool index that executed the job
};

struct ServeOptions {
  std::uint64_t workers = 1;
};

/// Campaign-level accounting, filled by run_jobs.
struct ServeStats {
  double wall_ms = 0;
  double runs_per_sec = 0;  ///< executed jobs (ok+failed) per wall second
  std::uint64_t ok = 0;
  std::uint64_t rejected = 0;
  std::uint64_t failed = 0;
  std::uint64_t arena_reuses = 0;
  std::uint64_t arena_allocations = 0;
  // Always zero: serve shares no oracle memo between jobs and has no job
  // queue (workers claim indices from a counter). The fields stay only
  // because the benchmark under perfbench/ still reads them; they go in the
  // same change that moves the benchmark off SharedOracleMemo.
  std::uint64_t memo_families = 0;
  std::uint64_t memo_entries = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_misses = 0;
  std::uint64_t backpressure_waits = 0;
  std::uint64_t queue_high_watermark = 0;
};

class ServeService {
 public:
  explicit ServeService(ServeOptions options = {});

  /// Execute every job on the worker pool. Returns one JobResult per job, in
  /// jobfile order; result *content* is independent of the worker count
  /// (only wall_ms and the worker index vary).
  std::vector<JobResult> run_jobs(const std::vector<JobSpec>& jobs);

  const ServeStats& stats() const { return stats_; }

  /// The reference executor: one job with standalone semantics — no arena
  /// reuse, current thread. serve_conformance_test compares
  /// pool results against this.
  static JobResult run_standalone(const JobSpec& spec, std::uint64_t job_id = 0);

 private:
  JobResult execute(const JobSpec& spec, std::uint64_t job_id, mpc::RoundArena* arena);

  ServeOptions options_;
  ServeStats stats_;
};

}  // namespace mpch::serve
