// E17 — latency vs throughput: what the theorem does NOT forbid.
//
// Theorem 3.1 bounds the rounds to finish ONE chain; it does not stop a
// cluster from walking many independent chains concurrently. This bench
// batches k instances of Line over the same machines and shows rounds stay
// ~flat in k while the sequential baseline grows k-fold — MPC parallelism
// survives as a throughput tool exactly where the paper leaves room for it.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <thread>

#include "bench_common.hpp"
#include "core/line.hpp"
#include "serve/service.hpp"
#include "strategies/batch_pointer_chasing.hpp"
#include "transport/transport.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

using namespace mpch;

namespace {

/// Order statistic over a (small) latency sample; q in [0, 1].
double percentile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  const std::size_t idx = std::min(
      samples.size() - 1, static_cast<std::size_t>(q * static_cast<double>(samples.size())));
  return samples[idx];
}

}  // namespace

int main(int argc, char** argv) {
  util::CliArgs args(argc, argv);
  const std::string transport_name = args.get_string("transport", "in-process");
  const transport::TransportKind transport_kind = transport::parse_transport_kind(transport_name);
  const std::uint64_t repeats = args.get_u64("repeats", 5);
  const bool serve_mode = args.get_bool("serve", false);
  if (!args.unused().empty()) {
    std::cerr << "unknown flag --" << args.unused().front()
              << " (supported: --transport, --repeats, --serve)\n";
    return 2;
  }

  bench::header("E17", "Latency vs throughput (what Theorem 3.1 leaves open)",
                "k batched chains finish in ~1x rounds, not k x — the bound is per-chain "
                "latency only");

  const std::uint64_t n = 64, u = 16, v = 8, m = 4, w = 1024;
  core::LineParams p = core::LineParams::make(n, u, v, w);

  util::Table t({"instances_k", "batched_rounds", "sequential_kx_baseline",
                 "rounds_per_chain", "total_queries", "all_outputs_ok"});
  std::uint64_t single_rounds = 0;
  for (std::uint64_t k : {1, 2, 4, 8, 16}) {
    auto oracle = std::make_shared<hash::LazyRandomOracle>(p.n, p.n, 40 + k);
    core::LineFunction f(p);
    std::vector<core::LineInput> inputs;
    std::vector<util::BitString> expected;
    for (std::uint64_t i = 0; i < k; ++i) {
      util::Rng rng(50 * k + i);
      inputs.push_back(core::LineInput::random(p, rng));
      expected.push_back(f.evaluate(*oracle, inputs.back()));
    }

    strategies::BatchPointerChasingStrategy strat(
        p, strategies::OwnershipPlan::round_robin(p, m), k);
    mpc::MpcConfig c;
    c.machines = m;
    c.local_memory_bits = strat.required_local_memory();
    c.query_budget = 1 << 20;
    c.max_rounds = 100000;
    mpc::MpcSimulation sim(c, oracle);
    auto result = sim.run(strat, strat.make_initial_memory(inputs));
    if (!result.completed) {
      std::cerr << "batch did not complete\n";
      return 1;
    }
    auto answers =
        strategies::BatchPointerChasingStrategy::parse_outputs(p, result.output, k);
    bool ok = true;
    for (std::uint64_t i = 0; i < k; ++i) ok = ok && answers[i] == expected[i];
    if (k == 1) single_rounds = result.rounds_used;
    t.add(k, result.rounds_used, k * single_rounds,
          util::format_double(static_cast<double>(result.rounds_used) / k, 1),
          result.trace.total_oracle_queries(), ok);
  }
  t.print(std::cout);

  std::cout << "\ninterpretation: batched rounds stay within ~1.2x of a single chain while\n"
               "the per-chain amortised latency falls like 1/k — the cluster's parallelism\n"
               "is fully useful for throughput. Theorem 3.1 kills only the hope of making\n"
               "ONE long sequential computation finish faster. (Note s scales with k here:\n"
               "the machines hold k inputs; the per-chain storage fraction f is unchanged.)\n";

  // Wall-clock throughput of the simulator itself: the same batched workload
  // with the round loop running machines concurrently (MpcConfig::threads)
  // over the selected transport backend. Each cell is `repeats` full runs:
  // runs/sec is the sustained rate, p50/p99 the per-run latency order
  // statistics. Output must stay bit-identical to the serial run at every
  // thread count (the conformance matrix proves it per backend; here it
  // doubles as a sanity check on the measured configuration).
  std::cout << "\nparallel round execution over transport \"" << transport_name
            << "\" (repeats per cell: " << repeats
            << ", hardware threads available: " << std::thread::hardware_concurrency() << "):\n";
  const std::uint64_t kBig = 16, mBig = 8;
  util::Table tp({"threads", "runs_per_sec", "p50_ms", "p99_ms", "speedup_vs_serial",
                  "output_identical"});
  util::BitString serial_output;
  double serial_p50 = 0.0;
  struct JsonRow {
    std::uint64_t threads;
    std::uint64_t rounds;
    double runs_per_sec;
    double p50_ms;
    double p99_ms;
  };
  std::vector<JsonRow> json_rows;
  for (std::uint64_t threads : {1, 2, 4, 8}) {
    core::LineFunction f(p);
    std::vector<core::LineInput> inputs;
    for (std::uint64_t i = 0; i < kBig; ++i) {
      util::Rng rng(900 + i);
      inputs.push_back(core::LineInput::random(p, rng));
    }
    std::vector<double> latencies_ms;
    util::BitString output;
    std::uint64_t rounds_used = 0;
    for (std::uint64_t rep = 0; rep < repeats; ++rep) {
      auto oracle = std::make_shared<hash::LazyRandomOracle>(p.n, p.n, 90);
      strategies::BatchPointerChasingStrategy strat(
          p, strategies::OwnershipPlan::round_robin(p, mBig), kBig);
      mpc::MpcConfig c;
      c.machines = mBig;
      c.local_memory_bits = strat.required_local_memory();
      c.query_budget = 1 << 20;
      c.max_rounds = 100000;
      c.threads = threads;
      c.transport = transport_kind;
      mpc::MpcSimulation sim(c, oracle);
      auto t0 = std::chrono::steady_clock::now();
      auto result = sim.run(strat, strat.make_initial_memory(inputs));
      auto t1 = std::chrono::steady_clock::now();
      if (!result.completed) {
        std::cerr << "parallel batch did not complete\n";
        return 1;
      }
      latencies_ms.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
      output = result.output;
      rounds_used = result.rounds_used;
    }
    double total_ms = 0.0;
    for (double ms : latencies_ms) total_ms += ms;
    const double runs_per_sec = 1000.0 * static_cast<double>(repeats) / total_ms;
    const double p50 = percentile(latencies_ms, 0.50);
    const double p99 = percentile(latencies_ms, 0.99);
    if (threads == 1) {
      serial_output = output;
      serial_p50 = p50;
    }
    tp.add(threads, util::format_double(runs_per_sec, 2), util::format_double(p50, 1),
           util::format_double(p99, 1), util::format_double(serial_p50 / p50, 2),
           output == serial_output);
    json_rows.push_back({threads, rounds_used, runs_per_sec, p50, p99});
  }
  tp.print(std::cout);

  // Machine-readable mirror of the throughput table for dashboards and
  // regression tracking (EXPERIMENTS.md workflow).
  {
    std::ofstream json("BENCH_e17.json");
    json << "[\n";
    for (std::size_t i = 0; i < json_rows.size(); ++i) {
      json << "  {\"strategy\": \"batch-pointer-chasing\", \"transport\": \"" << transport_name
           << "\", \"threads\": " << json_rows[i].threads
           << ", \"rounds\": " << json_rows[i].rounds
           << ", \"runs_per_sec\": " << util::format_double(json_rows[i].runs_per_sec, 3)
           << ", \"p50_ms\": " << util::format_double(json_rows[i].p50_ms, 3)
           << ", \"p99_ms\": " << util::format_double(json_rows[i].p99_ms, 3) << "}"
           << (i + 1 < json_rows.size() ? "," : "") << "\n";
    }
    json << "]\n";
  }
  std::cout << "\nwrote BENCH_e17.json (strategy, transport, threads, rounds, runs_per_sec, "
               "p50_ms, p99_ms per row)\n";
  std::cout << "\nnote: speedup tracks min(threads, m, hardware cores); on a single-core\n"
               "host the table demonstrates determinism (output_identical) rather than\n"
               "speed. Record multi-core numbers in EXPERIMENTS.md.\n";

  // --serve: the other axis of throughput — many independent *jobs* through
  // the mpch-serve worker pool (job-level parallelism) instead of one run
  // with round-level parallelism. Batch size fixed, worker count swept;
  // outputs must agree across all worker counts (serve's cornerstone).
  if (serve_mode) {
    std::cout << "\nserve mode: " << repeats * 8
              << " batch-pointer-chasing jobs through the mpch-serve pool:\n";
    util::Table ts({"workers", "runs_per_sec", "p50_ms", "p99_ms", "results_identical"});
    std::vector<serve::JobSpec> jobs(repeats * 8);
    for (std::uint64_t i = 0; i < jobs.size(); ++i) {
      jobs[i].verb = serve::JobVerb::kSimulate;
      jobs[i].strategy = "batch-pointer-chasing";
      jobs[i].seed = 1 + i % 8;
      jobs[i].transport = transport_kind;
    }
    std::vector<util::BitString> baseline;
    for (std::uint64_t workers : {1, 2, 4, 8}) {
      serve::ServeService service(serve::ServeOptions{workers, 64, true});
      auto results = service.run_jobs(jobs);
      std::vector<double> walls;
      bool identical = true;
      for (std::size_t i = 0; i < results.size(); ++i) {
        if (results[i].status != serve::JobStatus::kOk) {
          std::cerr << "serve job failed: " << results[i].error << "\n";
          return 1;
        }
        walls.push_back(results[i].wall_ms);
        if (workers == 1) {
          baseline.push_back(results[i].run.output);
        } else {
          identical = identical && results[i].run.output == baseline[i];
        }
      }
      ts.add(workers, util::format_double(service.stats().runs_per_sec, 2),
             util::format_double(percentile(walls, 0.50), 2),
             util::format_double(percentile(walls, 0.99), 2), identical);
      if (!identical) {
        std::cerr << "serve results diverged across worker counts\n";
        return 1;
      }
    }
    ts.print(std::cout);
  }
  return 0;
}
