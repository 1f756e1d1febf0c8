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
#include <limits>
#include <thread>

#include "bench_common.hpp"
#include "core/line.hpp"
#include "strategies/batch_pointer_chasing.hpp"
#include "transport/transport.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

using namespace mpch;

namespace {

int bench_main(const util::CliArgs& args) {
  const std::string transport_name = args.get_string("transport", "in-process");
  const transport::TransportKind transport_kind = transport::parse_transport_kind(transport_name);
  const std::uint64_t repeats = args.get_u64("repeats", 5);
  args.reject_unknown();

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
  double min_speedup = std::numeric_limits<double>::infinity();  // over threads > 1
  double max_speedup = 0.0;
  // Machine-readable mirror of the throughput table for dashboards and
  // regression tracking (EXPERIMENTS.md workflow).
  util::JsonWriter json;
  json.begin_array();
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
    const double p50 = bench::percentile(latencies_ms, 0.50);
    const double p99 = bench::percentile(latencies_ms, 0.99);
    if (threads == 1) {
      serial_output = output;
      serial_p50 = p50;
    }
    const double speedup = serial_p50 / p50;
    if (threads > 1) {
      min_speedup = std::min(min_speedup, speedup);
      max_speedup = std::max(max_speedup, speedup);
    }
    tp.add(threads, util::format_double(runs_per_sec, 2), util::format_double(p50, 1),
           util::format_double(p99, 1), util::format_double(speedup, 2),
           output == serial_output);
    json.begin_object()
        .member("strategy", "batch-pointer-chasing")
        .member("transport", transport_name)
        .member("threads", threads)
        .member("rounds", rounds_used)
        .member_double("runs_per_sec", runs_per_sec)
        .member_double("p50_ms", p50)
        .member_double("p99_ms", p99)
        .end_object();
  }
  tp.print(std::cout);
  std::ofstream("BENCH_e17.json") << json.end_array().str() << "\n";
  std::cout << "\nwrote BENCH_e17.json (strategy, transport, threads, rounds, runs_per_sec, "
               "p50_ms, p99_ms per row)\n";
  std::cout << "\nnote: at threads 2-8 the speedup over the serial p50 was "
            << util::format_double(min_speedup, 2) << "x to " << util::format_double(max_speedup, 2)
            << "x on " << std::thread::hardware_concurrency()
            << " hardware thread(s);\noutput_identical checks that every thread count gives the "
               "serial output.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::run_tool("bench_e17_throughput", argc, argv, bench_main);
}
