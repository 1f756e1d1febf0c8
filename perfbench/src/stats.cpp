// Order statistics, the tail-percentile rule, artifact digests and the
// artifact comparisons behind the correctness gate.
#include <algorithm>
#include <stdexcept>

#include "perfbench.hpp"
#include "serve/scenario.hpp"

namespace perfbench {

double median(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("median of no samples");
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

Tail tail_percentile(std::vector<double> samples) {
  constexpr std::size_t kBeyond = 10;
  if (samples.size() <= kBeyond) {
    throw std::invalid_argument("tail percentile needs at least " + std::to_string(kBeyond + 1) +
                                " samples, got " + std::to_string(samples.size()));
  }
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return {100.0 * static_cast<double>(n - kBeyond) / static_cast<double>(n),
          samples[n - kBeyond - 1]};
}

void Digest::fold(const std::string& line) {
  sha_.update(line);
  sha_.update(std::string("\n"));
}

std::string Digest::hex() { return hash::Sha256::to_hex(sha_.digest()).substr(0, 32); }

std::string artifact_line(const serve::JobResult& r) {
  const std::size_t records = r.run.transcript ? r.run.transcript->records().size() : 0;
  const std::size_t touched = r.oracle ? r.oracle->touched_entries() : 0;
  return std::to_string(r.job_id) + " " + serve::job_status_name(r.status) + " " +
         std::to_string(r.run.rounds_used) + " " + std::to_string(r.run.output.size()) + ":" +
         r.run.output.to_hex_string() + " " + std::to_string(records) + " " +
         std::to_string(touched);
}

std::string cli_line(const serve::JobResult& r) {
  std::string line = std::to_string(r.job_id) + " " + serve::job_status_name(r.status);
  if (r.status == serve::JobStatus::kRejected) return line + " - - -";
  return line + " " + std::to_string(r.run.rounds_used) + " " + r.run.output.to_hex_string() +
         " " + (r.oracle ? std::to_string(r.oracle->total_queries()) : std::string("-"));
}

std::string results_digest(const std::vector<serve::JobResult>& results) {
  Digest d;
  for (const auto& r : results) d.fold(artifact_line(r));
  return d.hex();
}

std::string cli_digest(const std::vector<serve::JobResult>& results) {
  Digest d;
  for (const auto& r : results) d.fold(cli_line(r));
  return d.hex();
}

namespace {

void compare_one(const serve::JobResult& want, const serve::JobResult& got,
                 std::vector<std::string>* bad) {
  const std::string where =
      "job " + std::to_string(want.job_id) + " (" + want.spec.describe() + ")";
  if (want.status != got.status) {
    bad->push_back(where + ": status " + serve::job_status_name(want.status) + " vs " +
                   serve::job_status_name(got.status) +
                   (got.error.empty() ? "" : ": " + got.error));
    return;
  }
  if (want.status != serve::JobStatus::kOk) return;  // no artifacts to compare
  for (const std::string& m :
       serve::artifact_mismatches(want.run, want.oracle.get(), got.run, got.oracle.get())) {
    bad->push_back(where + ": " + m);
  }
}

}  // namespace

std::vector<std::string> standalone_mismatches(const std::vector<serve::JobSpec>& jobs,
                                               const std::vector<serve::JobResult>& results,
                                               std::size_t sample) {
  std::vector<std::string> bad;
  const std::size_t n = jobs.size();
  const std::size_t k = std::min(sample, n);
  for (std::size_t s = 0; s < k; ++s) {
    const std::size_t i = s * n / k;
    compare_one(results[i], serve::ServeService::run_standalone(jobs[i], i), &bad);
  }
  return bad;
}

std::vector<std::string> result_mismatches(const std::vector<serve::JobResult>& expected,
                                           const std::vector<serve::JobResult>& got) {
  std::vector<std::string> bad;
  if (expected.size() != got.size()) {
    bad.push_back("job count " + std::to_string(expected.size()) + " vs " +
                  std::to_string(got.size()));
    return bad;
  }
  for (std::size_t i = 0; i < expected.size(); ++i) compare_one(expected[i], got[i], &bad);
  return bad;
}

}  // namespace perfbench
