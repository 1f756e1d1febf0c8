// mpch-serve — high-throughput batch job front end for the MPC testbed.
//
//   mpch-serve --jobs sweep.jobs --workers 8
//   mpch-serve --jobs - --workers 4 --format json < sweep.jobs
//   echo "simulate strategy=pointer-chasing repeat=100" | mpch-serve --jobs -
//   mpch-serve --list
//
// Reads a jobfile (one job per line — see src/serve/job_spec.hpp for the
// grammar), executes every job on a fixed-size worker pool whose workers
// claim jobs from one counter, and emits one machine-readable JobResult per
// job plus an aggregate throughput report (runs/sec, per-strategy p50/p99
// latency, arena counters).
//
// Each job derives its own oracle answers; the hot path recycles round
// buffers per worker, which changes no output bit — every JobResult is
// bit-identical to running the same job standalone (serve_conformance_test
// proves it). Jobs whose declared
// ProtocolSpec envelope does not fit their memory budget are rejected at
// admission, before execution, with static-checker provenance.
//
// Exit status: 0 all jobs ok; 1 some job failed at runtime (divergence,
// soundness, unrecoverable fault); 2 usage/jobfile error; 3 jobs were
// rejected at admission (and none failed) — distinct so sweep scripts can
// tell "your budget is too small" from "the run broke".
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "serve/job_spec.hpp"
#include "serve/scenario.hpp"
#include "serve/service.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

using namespace mpch;

namespace {

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p * double(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - double(lo);
  return values[lo] * (1 - frac) + values[hi] * frac;
}

struct StrategyLatency {
  std::string strategy;
  std::uint64_t jobs = 0;
  double p50 = 0;
  double p99 = 0;
};

std::vector<StrategyLatency> per_strategy_latency(const std::vector<serve::JobResult>& results) {
  std::vector<StrategyLatency> rows;
  for (const std::string& name : serve::strategy_names()) {
    std::vector<double> walls;
    for (const auto& r : results) {
      if (r.spec.strategy == name && r.status != serve::JobStatus::kRejected) {
        walls.push_back(r.wall_ms);
      }
    }
    if (walls.empty()) continue;
    rows.push_back({name, walls.size(), percentile(walls, 0.50), percentile(walls, 0.99)});
  }
  return rows;
}

void emit_json(const std::vector<serve::JobResult>& results, const serve::ServeStats& stats,
               const serve::ServeOptions& options) {
  util::JsonWriter w;
  w.begin_object();
  w.key("options").begin_object();
  w.member("workers", options.workers);
  w.end_object();

  w.key("jobs").begin_array();
  for (const auto& r : results) {
    w.begin_object();
    w.member("job_id", r.job_id);
    w.member("line", r.spec.source_line);
    w.member("verb", serve::job_verb_name(r.spec.verb));
    w.member("strategy", r.spec.strategy);
    w.member("seed", r.spec.seed);
    w.member("status", serve::job_status_name(r.status));
    w.member_double("wall_ms", r.wall_ms);
    if (!r.error.empty()) w.member("error", r.error);
    if (r.status != serve::JobStatus::kRejected) {
      w.member("completed", r.run.completed);
      w.member("rounds_used", r.run.rounds_used);
      w.member("output_hex", r.run.output.to_hex_string());
      if (r.oracle != nullptr) w.member("oracle_queries", r.oracle->total_queries());
    }
    if (!r.admission.violations.empty()) {
      w.key("admission").begin_array();
      for (const auto& d : r.admission.violations) w.value(d.to_string());
      w.end_array();
    }
    if (r.spec.verb == serve::JobVerb::kChaos && r.status != serve::JobStatus::kRejected) {
      w.member("faults_injected", r.cost.faults_injected);
      w.member("recoveries", r.cost.recoveries);
      w.member("rounds_reexecuted", r.cost.rounds_reexecuted);
      w.member("verified", r.mismatches.empty());
    }
    w.end_object();
  }
  w.end_array();

  w.key("aggregate").begin_object();
  w.member("jobs", static_cast<std::uint64_t>(results.size()));
  w.member("ok", stats.ok);
  w.member("rejected", stats.rejected);
  w.member("failed", stats.failed);
  w.member_double("wall_ms", stats.wall_ms);
  w.member_double("runs_per_sec", stats.runs_per_sec);
  w.key("latency").begin_array();
  for (const auto& row : per_strategy_latency(results)) {
    w.begin_object();
    w.member("strategy", row.strategy);
    w.member("jobs", row.jobs);
    w.member_double("p50_ms", row.p50);
    w.member_double("p99_ms", row.p99);
    w.end_object();
  }
  w.end_array();
  w.member("arena_reuses", stats.arena_reuses);
  w.member("arena_allocations", stats.arena_allocations);
  w.end_object();
  w.end_object();
  std::cout << w.str() << "\n";
}

void emit_text(const std::vector<serve::JobResult>& results, const serve::ServeStats& stats) {
  for (const auto& r : results) {
    std::cout << "job " << r.job_id << " [" << serve::job_status_name(r.status) << "] "
              << r.spec.describe() << " (" << util::format_double(r.wall_ms, 3) << " ms";
    if (r.status != serve::JobStatus::kRejected) {
      std::cout << ", " << r.run.rounds_used << " round(s)";
    }
    std::cout << ")\n";
    if (!r.error.empty()) std::cout << "  error: " << r.error << "\n";
    for (const auto& d : r.admission.violations) std::cout << "  admission: " << d.to_string() << "\n";
    for (const auto& m : r.mismatches) std::cout << "  mismatch: " << m << "\n";
  }

  std::cout << "\n";
  util::Table latency({"strategy", "jobs", "p50 ms", "p99 ms"});
  for (const auto& row : per_strategy_latency(results)) {
    latency.add(row.strategy, row.jobs, row.p50, row.p99);
  }
  if (latency.rows() > 0) {
    latency.print(std::cout);
    std::cout << "\n";
  }
  std::cout << results.size() << " job(s): " << stats.ok << " ok, " << stats.rejected
            << " rejected, " << stats.failed << " failed in "
            << util::format_double(stats.wall_ms, 1) << " ms ("
            << util::format_double(stats.runs_per_sec, 1) << " runs/sec)\n"
            << "buffers: " << stats.arena_reuses << " reuse(s), " << stats.arena_allocations
            << " allocation(s)\n";
}

int tool_main(const util::CliArgs& args) {
  if (args.get_bool("help", false)) {
    std::cout << "usage: mpch-serve --jobs FILE|- [--workers N] [--format text|json] [--list]\n"
                 "  jobfile grammar (one job per line, '#' comments):\n"
                 "    <verb> strategy=NAME [seed=N] [repeat=N] [threads=N]\n"
                 "           [transport=in-process|socket] [transport-procs=N]\n"
                 "           [authenticate=true] [budget-bits=N]\n"
                 "    verb = simulate | verify | chaos\n"
                 "    chaos adds: plan=SPEC [policy=restart|replicate|quarantine] [every=N]\n"
                 "  repeat=N expands to N jobs with seeds seed..seed+N-1 (sweeps)\n"
                 "  budget-bits: admitted memory budget; jobs whose declared spec\n"
                 "               envelope does not fit are rejected before running\n"
                 "  exit: 0 all ok, 1 runtime failure, 2 usage error, 3 admission rejection\n";
    return 0;
  }
  if (args.get_bool("list", false)) {
    for (const auto& name : serve::strategy_names()) std::cout << name << "\n";
    return 0;
  }

  const std::string jobs_path = args.get_string("jobs", "");
  serve::ServeOptions options;
  options.workers = args.get_u64("workers", 4);
  const bool json = args.get_choice("format", "text", {"text", "json"}) == "json";
  args.reject_unknown();
  if (jobs_path.empty()) throw util::CliError("--jobs FILE|- is required (try --help)");

  const std::vector<serve::JobSpec> jobs =
      serve::parse_jobfile(util::read_input(jobs_path, serve::kMaxJobfileBytes));
  if (jobs.empty()) throw util::CliError("jobfile contains no jobs");

  serve::ServeService service(options);
  std::vector<serve::JobResult> results = service.run_jobs(jobs);

  if (json) {
    emit_json(results, service.stats(), options);
  } else {
    emit_text(results, service.stats());
  }

  if (service.stats().failed > 0) return 1;
  if (service.stats().rejected > 0) return 3;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::run_tool("mpch-serve", argc, argv, tool_main);
}
