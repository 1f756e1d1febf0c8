// Tests of the benchmark's own helpers: the tail-percentile rule, the
// median, digest folding, deterministic job generation, and that the
// traced and plain replays reproduce the pooled run's artifacts.
//
//   ctest --test-dir .bench_build/perfbench --output-on-failure
#include <cmath>
#include <iostream>
#include <stdexcept>

#include "perfbench.hpp"

using namespace perfbench;

namespace {

int g_failures = 0;

#define CHECK(cond)                                                                 \
  do {                                                                              \
    if (!(cond)) {                                                                  \
      std::cerr << __FILE__ << ":" << __LINE__ << ": CHECK failed: " #cond << "\n"; \
      ++g_failures;                                                                 \
    }                                                                               \
  } while (0)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9 * std::max(1.0, std::fabs(b)); }

/// 1..n, in descending order so the helpers must sort.
std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 0; i < n; ++i) v.push_back(double(n - i));
  return v;
}

void tail_rule() {
  bool refused = false;
  try {
    tail_percentile(one_to(10));
  } catch (const std::invalid_argument&) {
    refused = true;
  }
  CHECK(refused);

  const Tail eleven = tail_percentile(one_to(11));  // ten samples beyond the smallest
  CHECK(near(eleven.value, 1));
  CHECK(near(eleven.percentile, 100.0 / 11));

  const Tail big = tail_percentile(one_to(2002));
  CHECK(near(big.value, 1992));  // exactly ten of 1..2002 lie above it
  CHECK(near(big.percentile, 100.0 * 1992 / 2002));
}

void medians() {
  CHECK(near(median({3, 1, 2}), 2));
  CHECK(near(median({4, 1, 3, 2}), 2.5));
}

void digest_folding() {
  Digest empty;
  // sha256("")
  CHECK(empty.hex() == "e3b0c44298fc1c149afbf4c8996fb924");
  Digest ab, ba, joined;
  ab.fold("a");
  ab.fold("b");
  ba.fold("b");
  ba.fold("a");
  joined.fold("a\nb");
  const std::string ab_hex = ab.hex();
  CHECK(ab_hex.size() == 32);
  CHECK(ab_hex != ba.hex());      // order matters
  CHECK(ab_hex == joined.hex());  // lines fold as newline-terminated text

  serve::JobResult r;
  r.job_id = 7;
  r.status = serve::JobStatus::kOk;
  r.run.rounds_used = 3;
  r.run.output = util::BitString::from_uint(5, 4);
  const std::string base = results_digest({r});
  CHECK(base == results_digest({r}));
  serve::JobResult other_rounds = r;
  other_rounds.run.rounds_used = 4;
  CHECK(base != results_digest({other_rounds}));
  serve::JobResult other_status = r;
  other_status.status = serve::JobStatus::kFailed;
  CHECK(base != results_digest({other_status}));
  serve::JobResult other_output = r;
  other_output.run.output = util::BitString::from_uint(5, 5);  // same hex, one more bit
  CHECK(base != results_digest({other_output}));
  CHECK(artifact_line(r) == "7 ok 3 4:5 0 0");
  CHECK(cli_line(r) == "7 ok 3 5 -");
}

void job_generation() {
  for (const Workload& w : workloads()) {
    const std::string a = make_jobfile(w.name, kDefaultSeed);
    CHECK(a == make_jobfile(w.name, kDefaultSeed));
    CHECK(a != make_jobfile(w.name, kDefaultSeed + 1));
    const auto jobs = serve::parse_jobfile(a);
    CHECK(!jobs.empty());
    CHECK(&find_workload(w.name) == &w);
  }
  CHECK(serve::parse_jobfile(make_jobfile("oracle-sweep", 1)).size() == 2002);
  CHECK(serve::parse_jobfile(make_jobfile("chatty-auth", 1)).size() == 1000);
  CHECK(serve::parse_jobfile(make_jobfile("chaos-restart", 1)).size() == 400);
  bool refused = false;
  try {
    make_jobfile("no-such-workload", 1);
  } catch (const std::invalid_argument&) {
    refused = true;
  }
  CHECK(refused);
}

/// The first jobs of every workload: pooled, plain replay and traced replay
/// must agree on every artifact surface.
void replay_matches_pool() {
  for (const Workload& w : workloads()) {
    auto jobs = serve::parse_jobfile(make_jobfile(w.name, 2));
    jobs.resize(12);
    serve::ServeService service(w.options());
    const auto pooled = service.run_jobs(jobs);
    LayerTotals totals;
    Capture capture;
    const auto traced = replay_jobs(jobs, &totals, &capture);
    RecoveryTimes recovery;
    const auto plain = replay_jobs(jobs, nullptr, nullptr, &recovery);
    const auto traced_bad = result_mismatches(pooled, traced);
    const auto plain_bad = result_mismatches(pooled, plain);
    for (const auto& m : traced_bad) std::cerr << w.name << " traced: " << m << "\n";
    for (const auto& m : plain_bad) std::cerr << w.name << " plain: " << m << "\n";
    CHECK(traced_bad.empty());
    CHECK(plain_bad.empty());
    CHECK(results_digest(pooled) == results_digest(traced));
    CHECK(totals.jobs == jobs.size());
    CHECK(totals.rounds > 0);
    CHECK(!capture.frames.empty());
    if (w.name == "oracle-sweep") CHECK(totals.oracle_queries > 0);
    if (w.name == "chaos-restart") {
      // The one workload that reaches every layer: its capture feeds every
      // microbench, each of which checks its layer's output first.
      CHECK(totals.checkpoints > 0);
      CHECK(capture.full());
      CHECK(recovery.reference_ns > 0 && recovery.restart_ns > recovery.reference_ns);
      bool refused = false;
      try {
        replay_jobs(jobs, &totals, nullptr, &recovery);  // decorated reference: refused
      } catch (const std::invalid_argument&) {
        refused = true;
      }
      CHECK(refused);
      const std::vector<Metric> micro = layer_microbenches(capture);
      CHECK(micro.size() == 12);
      for (const Metric& m : micro) CHECK(m.value > 0 && m.samples >= 5);
    }
  }
}

}  // namespace

int main() {
  tail_rule();
  medians();
  digest_folding();
  job_generation();
  replay_matches_pool();
  if (g_failures != 0) {
    std::cerr << g_failures << " check(s) failed\n";
    return 1;
  }
  std::cout << "perfbench selftest: all checks passed\n";
  return 0;
}
