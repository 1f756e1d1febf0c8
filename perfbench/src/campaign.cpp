// End-to-end campaigns and the traced run.
//
// End to end, one campaign is: generate and parse the jobfile and construct
// a ServeService (setup), then run_jobs over the whole jobfile with the
// workload's worker count. Campaigns repeat until the run's time is spent;
// those of the first fifth (at least one) warm up and are not reported, and
// every timing is the median over the rest.
#include <chrono>
#include <fstream>
#include <memory>
#include <sstream>

#include "perfbench.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

constexpr std::size_t kMinCampaigns = 3;      // reported, after the warm-up
constexpr double kWarmupShare = 0.2;           // of the run's seconds
constexpr std::size_t kStandaloneSample = 12;  // jobs re-run standalone by the gate
constexpr std::size_t kSetupsPerCampaign = 5;  // setup_s is their median

/// Resets the kernel's peak-RSS mark so each campaign's peak is its own.
void reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0;
}

std::string fmt(double v, int precision = 4) {
  std::ostringstream out;
  out.precision(precision);
  out << v;
  return out.str();
}

void check_digest(const Workload& w, std::uint64_t seed, const std::string& digest,
                  RunReport* rep) {
  rep->notes.push_back("digest " + digest);
  if (seed == kDefaultSeed && digest != w.default_digest) {
    rep->errors.push_back("digest " + digest + " differs from the recorded default-seed digest " +
                          w.default_digest);
  }
}

void gate_standalone(const std::vector<serve::JobSpec>& jobs,
                     const std::vector<serve::JobResult>& results, RunReport* rep) {
  for (const std::string& m : standalone_mismatches(jobs, results, kStandaloneSample)) {
    rep->errors.push_back("pooled vs standalone: " + m);
  }
}

std::uint64_t executed(const serve::ServeStats& s) { return s.ok + s.failed; }

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Jobs whose replay fills every capture category; used only for the
/// categories a workload leaves empty (e.g. no oracle on chatty-auth).
std::vector<serve::JobSpec> fallback_jobs(std::uint64_t seed) {
  return serve::parse_jobfile(
      "chaos strategy=pointer-chasing seed=" + std::to_string(seed) +
      " plan=crash:machine=1,round=9 policy=restart every=4\n");
}

}  // namespace

RunReport run_end_to_end(const Workload& w, std::uint64_t seed, double seconds) {
  RunReport rep;
  std::vector<double> setup_s, jobs_per_s, p50_ms, tail_ms, rss_mb, tail_pct;
  std::uint64_t jobs_per_campaign = 0;
  std::string digest;
  std::vector<serve::JobSpec> jobs;
  std::vector<serve::JobResult> results;
  const auto start = Clock::now();
  std::size_t warmups = 0;
  for (std::size_t campaign = 0;; ++campaign) {
    results.clear();  // the previous campaign's memory must not count against this one
    results.shrink_to_fit();

    // A campaign's first setup runs cold (up to 3x the later ones on the
    // short chatty-auth jobfile); the median of several back-to-back setups
    // is the setup work itself.
    std::unique_ptr<serve::ServeService> service;
    std::vector<double> setups;
    for (std::size_t i = 0; i < kSetupsPerCampaign; ++i) {
      service.reset();
      jobs = {};
      const auto setup_start = Clock::now();
      jobs = serve::parse_jobfile(make_jobfile(w.name, seed));
      service = std::make_unique<serve::ServeService>(w.options());
      setups.push_back(seconds_since(setup_start));
    }
    const double setup = median(setups);

    reset_peak_rss();
    results = service->run_jobs(jobs);
    const double rss = peak_rss_mb();
    const serve::ServeStats& stats = service->stats();

    const std::string d = results_digest(results);
    if (campaign == 0) {
      digest = d;
    } else if (d != digest) {
      rep.errors.push_back("campaign " + std::to_string(campaign) + " digest " + d +
                           " differs from the first campaign's " + digest);
    }
    // Warm-up: the host's cores and the allocator settle over the first
    // campaigns, so at least one campaign and kWarmupShare of the run go
    // unreported.
    if (campaign == 0 || seconds_since(start) < kWarmupShare * seconds) {
      ++warmups;
    } else {
      std::vector<double> walls;
      for (const auto& r : results) {
        if (r.status != serve::JobStatus::kRejected) walls.push_back(r.wall_ms);
      }
      const Tail tail = tail_percentile(walls);
      setup_s.push_back(setup);
      jobs_per_s.push_back(1000.0 * double(executed(stats)) / stats.wall_ms);
      p50_ms.push_back(median(walls));
      tail_ms.push_back(tail.value);
      tail_pct.push_back(tail.percentile);
      rss_mb.push_back(rss);
      rep.attempted += jobs.size();
      rep.failed += stats.failed + stats.rejected;
      jobs_per_campaign = jobs.size();
    }
    if (setup_s.size() >= kMinCampaigns && seconds_since(start) >= seconds) break;
  }

  check_digest(w, seed, digest, &rep);
  rep.notes.push_back("cli digest " + cli_digest(results));
  gate_standalone(jobs, results, &rep);

  const std::uint64_t n = setup_s.size();
  const double failed_share = ratio(double(rep.failed), double(rep.attempted));
  rep.metrics = {
      {"jobs_per_s", "1/s", median(jobs_per_s), n},
      {"job_p50_ms", "ms", median(p50_ms), n},
      {"job_tail_ms", "ms", median(tail_ms), n},
      {"setup_s", "s", median(setup_s), n},
      {"peak_rss_mb", "MB", median(rss_mb), n},
      {"ok_share", "share", 1.0 - failed_share, n},
  };
  rep.notes.push_back("closed loop: " + std::to_string(kWorkers) + " workers, " +
                      std::to_string(jobs_per_campaign) + " jobs per campaign, " +
                      std::to_string(n) + " campaign(s) after " + std::to_string(warmups) +
                      " warm-up campaign(s)");
  std::string per_campaign;
  for (double v : jobs_per_s) {
    per_campaign += ' ';
    per_campaign += fmt(v);
  }
  rep.notes.push_back("jobs_per_s by campaign:" + per_campaign);
  rep.notes.push_back("job_tail_ms is p" + fmt(median(tail_pct)) + " (the highest percentile " +
                      "with at least ten jobs beyond it)");
  rep.notes.push_back("failed_share " + fmt(failed_share) + " (failed + rejected over " +
                      std::to_string(rep.attempted) + " attempted)");
  return rep;
}

RunReport run_traced(const Workload& w, std::uint64_t seed, double seconds) {
  RunReport rep;
  const std::vector<serve::JobSpec> jobs = serve::parse_jobfile(make_jobfile(w.name, seed));

  serve::ServeService service(w.options());
  const std::vector<serve::JobResult> pooled = service.run_jobs(jobs);
  const serve::ServeStats stats = service.stats();
  rep.attempted = jobs.size();
  rep.failed = stats.failed + stats.rejected;
  check_digest(w, seed, results_digest(pooled), &rep);

  // Alternate undecorated and traced replays so both see the same host state.
  LayerTotals totals;
  Capture capture;
  RecoveryTimes recovery;
  std::vector<double> plain_ms, traced_ms, overhead;
  const auto start = Clock::now();
  while (plain_ms.empty() || seconds_since(start) < seconds) {
    const bool first = plain_ms.empty();
    auto t = Clock::now();
    const auto plain = replay_jobs(jobs, nullptr, nullptr, &recovery);
    plain_ms.push_back(seconds_since(t) * 1000);
    t = Clock::now();
    const auto traced = replay_jobs(jobs, &totals, first ? &capture : nullptr);
    traced_ms.push_back(seconds_since(t) * 1000);
    overhead.push_back(traced_ms.back() / plain_ms.back());
    if (first) {
      for (const auto& m : result_mismatches(pooled, plain)) {
        rep.errors.push_back("plain replay: " + m);
      }
      for (const auto& m : result_mismatches(pooled, traced)) {
        rep.errors.push_back("traced replay: " + m);
      }
    }
  }

  // Layers the workload never reaches are timed on a fallback job instead,
  // so every per-layer metric is a measurement; the note names which.
  LayerTotals fallback;
  if (!capture.full() || totals.checkpoints == 0) {
    Capture extra;
    replay_jobs(fallback_jobs(seed), &fallback, &extra);
    std::string filled;
    auto fill = [&](auto& mine, auto& theirs, const char* what) {
      if (mine.empty()) {
        mine = std::move(theirs);
        filled += std::string(filled.empty() ? "" : ", ") + what;
      }
    };
    fill(capture.oracle, extra.oracle, "oracle inputs");
    fill(capture.frames, extra.frames, "frames");
    fill(capture.inboxes, extra.inboxes, "inboxes");
    fill(capture.checkpoints, extra.checkpoints, "checkpoints");
    rep.notes.push_back("the workload reaches no " + filled +
                        "; those layers are timed on a fallback pointer-chasing chaos job");
  }
  const LayerTotals& ckpt = totals.checkpoints > 0 ? totals : fallback;
  const LayerTotals& queried = totals.oracle_queries > 0 ? totals : fallback;
  std::vector<Metric> micro;
  try {
    micro = layer_microbenches(capture);
  } catch (const std::exception& e) {
    rep.errors.push_back(std::string("layer microbench: ") + e.what());
  }
  gate_standalone(jobs, pooled, &rep);

  double sum_wall_ms = 0;
  std::uint64_t rounds = 0, messages = 0, comm_bits = 0;
  for (const auto& r : pooled) {
    sum_wall_ms += r.wall_ms;
    if (r.status == serve::JobStatus::kRejected) continue;
    rounds += r.run.rounds_used;
    for (const auto& s : r.run.trace.rounds()) {
      messages += s.messages;
      comm_bits += s.communicated_bits;
    }
  }
  const double n_jobs = double(jobs.size());
  const double traced_jobs = double(totals.jobs);
  const std::uint64_t passes = traced_ms.size();
  auto micro_value = [&](const std::string& name) -> Metric {
    for (const Metric& m : micro) {
      if (m.name == name) return m;
    }
    return {name, "ns", 0, 0};
  };
  const double round_self_ns = totals.round_ns - totals.round_machine_ns -
                               totals.round_transport_ns - totals.attestation_ns;
  const LayerTotals& t = totals;
  const double calls = double(t.machine_calls);
  rep.metrics = {
      {"hash.oracle_query_ns", "ns", ratio(queried.oracle_ns, double(queried.oracle_queries)),
       queried.oracle_queries},
      {"hash.oracle_queries_per_job", "count", ratio(double(t.oracle_queries), traced_jobs),
       passes},
      {"hash.oracle_share", "share", ratio(t.oracle_ns, t.job_ns), passes},
      micro_value("hash.derive_ns"),
      micro_value("hash.local_hit_ns"),
      micro_value("hash.shared_hit_ns"),
      micro_value("hash.transcript_record_ns"),
      micro_value("hash.sha256_ns_per_block"),
      micro_value("util.bitstring_concat_ns_per_bit"),
      micro_value("util.bitstring_slice_ns_per_bit"),
      micro_value("util.bitstring_set_uint_ns"),
      {"mpc.round_ns_per_machine_round", "ns", ratio(round_self_ns, double(t.machine_rounds)),
       passes},
      {"mpc.rounds_per_job", "count", ratio(double(rounds), n_jobs), 1},
      {"mpc.messages_per_job", "count", ratio(double(messages), n_jobs), 1},
      {"mpc.comm_bits_per_job", "count", ratio(double(comm_bits), n_jobs), 1},
      micro_value("mpc.auth_tag_ns_per_msg"),
      micro_value("mpc.auth_verify_ns_per_msg"),
      {"mpc.arena_reuse_ratio", "share",
       ratio(double(stats.arena_reuses), double(stats.arena_reuses + stats.arena_allocations)), 1},
      {"strategies.run_machine_ns", "ns", ratio(t.run_machine_ns - t.run_machine_oracle_ns, calls),
       passes},
      {"transport.start_ms", "ms", ratio(t.transport_start_ns / 1e6, double(t.transport_starts)),
       passes},
      {"transport.flush_us_per_round", "us", ratio(t.flush_ns / 1e3, double(t.flushes)), passes},
      {"transport.send_receive_ns_per_msg", "ns", ratio(t.send_receive_ns, double(t.messages)),
       passes},
      micro_value("transport.wire_encode_ns_per_frame"),
      micro_value("transport.wire_decode_ns_per_frame"),
      {"transport.bytes_per_round", "B/round", ratio(t.wire_bytes, double(t.flushes)), passes},
      {"fault.checkpoint_save_us", "us",
       ratio(ckpt.checkpoint_save_ns / 1e3, double(ckpt.checkpoints)), ckpt.checkpoints},
      {"fault.checkpoint_load_us", "us",
       ratio(ckpt.checkpoint_load_ns / 1e3, double(ckpt.checkpoints)), ckpt.checkpoints},
      {"fault.checkpoint_bits", "bits", ratio(ckpt.checkpoint_bits, double(ckpt.checkpoints)),
       ckpt.checkpoints},
      {"fault.checkpoints_per_job", "count", ratio(double(t.chaos_checkpoints), traced_jobs),
       passes},
      {"fault.rounds_reexecuted_per_job", "count",
       ratio(double(t.rounds_reexecuted), traced_jobs), passes},
      {"fault.recovery_overhead_ratio", "ratio",
       ratio(recovery.restart_ns, recovery.reference_ns), passes},
      {"serve.worker_busy_share", "share", ratio(sum_wall_ms, double(kWorkers) * stats.wall_ms),
       1},
      {"serve.memo_hit_ratio", "share",
       ratio(double(stats.memo_hits), double(stats.memo_hits + stats.memo_misses)), 1},
      {"serve.memo_entries", "count", double(stats.memo_entries), 1},
      {"serve.backpressure_waits", "count", double(stats.backpressure_waits), 1},
      {"serve.queue_high_watermark", "count", double(stats.queue_high_watermark), 1},
      {"trace.replay_ms", "ms", median(traced_ms), passes},
      {"trace.plain_replay_ms", "ms", median(plain_ms), passes},
      {"trace.overhead_ratio", "ratio", median(overhead), passes},
  };
  rep.notes.push_back("traced replay: " + std::to_string(passes) +
                      " pair(s) of plain and traced replays of " + std::to_string(jobs.size()) +
                      " jobs, one at a time; per-layer times are totals over every traced pass");
  rep.notes.push_back("transport.bytes_per_round is computed: MPCF data-frame bytes of every "
                      "message, whichever transport carried it");
  rep.notes.push_back("mpc.round_ns_per_machine_round excludes strategy, transport and the "
                      "observer's attestation digests");
  rep.notes.push_back("strategies.run_machine_ns excludes oracle time; on authenticated jobs it "
                      "includes MAC tagging, which MachineIo::send does inside run_machine");
  rep.notes.push_back("fault.recovery_overhead_ratio is run_restart over the fault-free reference "
                      "run, both timed on the undecorated replays");
  return rep;
}

}  // namespace perfbench
