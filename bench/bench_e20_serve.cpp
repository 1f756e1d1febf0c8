// E20 — mpch-serve throughput: the job-queue service as a measurement.
//
// Two sections, both through the real ServeService (the same engine behind
// the mpch-serve CLI):
//
//  1. ram-sweep — 200 independent ram-emulation jobs (seeds 1..200) on a
//     worker pool. The acceptance bar: total wall time beats 200x the
//     single-run ram-emulation time BENCH_e18 records (~23.5 ms), i.e. the
//     service amortises setup and parallelises across jobs instead of just
//     queueing them.
//
//  2. mixed — all eight strategies x several seeds, reporting per-strategy
//     p50/p99 latency under the pool.
//
// Writes BENCH_e20.json (the machine-readable mirror) to the working
// directory, like the other bench JSON artifacts.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <thread>

#include "bench_common.hpp"
#include "serve/service.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

using namespace mpch;

namespace {

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const std::size_t idx = std::min(
      samples.size() - 1, static_cast<std::size_t>(q * static_cast<double>(samples.size())));
  return samples[idx];
}

std::vector<double> executed_walls(const std::vector<serve::JobResult>& results) {
  std::vector<double> walls;
  for (const auto& r : results) {
    if (r.status != serve::JobStatus::kRejected) walls.push_back(r.wall_ms);
  }
  return walls;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliArgs args(argc, argv);
  const std::uint64_t workers = args.get_u64("workers", 4);
  const std::uint64_t sweep_jobs = args.get_u64("sweep-jobs", 200);
  if (!args.unused().empty()) {
    std::cerr << "unknown flag --" << args.unused().front()
              << " (supported: --workers, --sweep-jobs)\n";
    return 2;
  }

  bench::header("E20", "mpch-serve job-queue throughput",
                "a worker pool with buffer reuse beats N x single-run "
                "time on N-job sweeps without changing one output bit");
  std::cout << "workers: " << workers
            << " (hardware threads: " << std::thread::hardware_concurrency() << ")\n";

  util::JsonWriter json;
  json.begin_object();
  json.member("workers", workers);

  // --- 1. ram-emulation sweep -------------------------------------------
  std::vector<serve::JobSpec> ram_jobs(sweep_jobs);
  for (std::uint64_t i = 0; i < sweep_jobs; ++i) {
    ram_jobs[i].verb = serve::JobVerb::kSimulate;
    ram_jobs[i].strategy = "ram-emulation";
    ram_jobs[i].seed = i + 1;
  }
  serve::ServeService ram_service(serve::ServeOptions{workers, 64, true});
  auto ram_results = ram_service.run_jobs(ram_jobs);
  std::uint64_t ram_ok = ram_service.stats().ok;
  auto ram_walls = executed_walls(ram_results);
  const double ram_wall = ram_service.stats().wall_ms;
  std::cout << "\nram-sweep: " << sweep_jobs << " jobs, " << ram_ok << " ok, "
            << util::format_double(ram_wall, 1) << " ms total ("
            << util::format_double(ram_service.stats().runs_per_sec, 1) << " runs/sec, p50 "
            << util::format_double(percentile(ram_walls, 0.50), 3) << " ms, p99 "
            << util::format_double(percentile(ram_walls, 0.99), 3) << " ms)\n"
            << "  buffer arenas: " << ram_service.stats().arena_reuses << " reuse(s), "
            << ram_service.stats().arena_allocations << " allocation(s)\n";
  json.key("ram_sweep").begin_object();
  json.member("jobs", sweep_jobs);
  json.member("ok", ram_ok);
  json.member_double("wall_ms", ram_wall);
  json.member_double("runs_per_sec", ram_service.stats().runs_per_sec);
  json.member_double("p50_ms", percentile(ram_walls, 0.50));
  json.member_double("p99_ms", percentile(ram_walls, 0.99));
  json.member("arena_reuses", ram_service.stats().arena_reuses);
  json.member("arena_allocations", ram_service.stats().arena_allocations);
  json.end_object();
  if (ram_ok != sweep_jobs) {
    std::cerr << "ram-sweep had failures\n";
    return 1;
  }

  // --- 2. mixed per-strategy latency ------------------------------------
  std::vector<serve::JobSpec> mixed;
  for (const std::string& name : serve::strategy_names()) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      serve::JobSpec spec;
      spec.verb = serve::JobVerb::kSimulate;
      spec.strategy = name;
      spec.seed = seed;
      mixed.push_back(spec);
    }
  }
  serve::ServeService mixed_service(serve::ServeOptions{workers, 64, true});
  auto mixed_results = mixed_service.run_jobs(mixed);
  util::Table t({"strategy", "jobs", "p50_ms", "p99_ms"});
  json.key("strategies").begin_array();
  for (const std::string& name : serve::strategy_names()) {
    std::vector<double> walls;
    for (const auto& r : mixed_results) {
      if (r.spec.strategy == name && r.status != serve::JobStatus::kRejected) {
        walls.push_back(r.wall_ms);
      }
    }
    if (walls.empty()) continue;
    const double p50 = percentile(walls, 0.50), p99 = percentile(walls, 0.99);
    t.add(name, walls.size(), util::format_double(p50, 3), util::format_double(p99, 3));
    json.begin_object();
    json.member("strategy", name);
    json.member("jobs", static_cast<std::uint64_t>(walls.size()));
    json.member_double("p50_ms", p50);
    json.member_double("p99_ms", p99);
    json.end_object();
  }
  json.end_array();
  std::cout << "\nmixed sweep (" << mixed.size() << " jobs, "
            << util::format_double(mixed_service.stats().runs_per_sec, 1) << " runs/sec):\n";
  t.print(std::cout);
  json.member_double("mixed_runs_per_sec", mixed_service.stats().runs_per_sec);
  json.end_object();

  std::ofstream out("BENCH_e20.json");
  out << json.str() << "\n";
  std::cout << "\nwrote BENCH_e20.json (ram_sweep, per-strategy latency)\n"
            << "\ninterpretation: the sweep's wall time is what a cluster operator buys with\n"
               "the service — Theorem 3.1 caps per-run rounds, not jobs/second.\n";
  return 0;
}
