// perfbench — run one workload and print its metrics.
//
//   perfbench --workload oracle-sweep --seed 1 --seconds 10 --trace 0
//   perfbench --workload chaos-restart --seed 1 --seconds 10 --trace 1
//   perfbench --emit-jobfile chaos-restart --seed 1    # the jobfile only
//   perfbench --digest chatty-auth --seed 1            # one pooled campaign
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Human-readable lines come first; the last line of stdout is one JSON
// object {"correct", "attempted", "failed", "metrics"}. --results-dir DIR
// also writes the full result with its host and build record to DIR.
// Exit status: 0 correct, 1 a correctness check failed, 2 usage error,
// 3 sanitized build (timings refused).
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "perfbench.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

using namespace perfbench;

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) v = 0;
  std::ostringstream out;
  out << std::setprecision(12) << v;
  return out.str();
}

std::string result_line(const RunReport& rep) {
  std::ostringstream out;
  out << "{\"correct\": " << (rep.errors.empty() ? "true" : "false")
      << ", \"attempted\": " << rep.attempted << ", \"failed\": " << rep.failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const Metric& m = rep.metrics[i];
    out << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": " << number(m.value)
        << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

void write_result_file(const std::string& dir, const Workload& w, bool trace, double seconds,
                       const HostRecord& host, const RunReport& rep) {
  std::filesystem::create_directories(dir);
  util::JsonWriter j;
  j.begin_object();
  j.member("workload", w.name);
  j.member("seed", host.seed);
  j.member("trace", trace);
  j.member_double("seconds", seconds);
  j.key("host").begin_object();
  j.member("nproc", host.nproc);
  j.member("cpu_model", host.cpu_model);
  j.member("compiler", host.compiler);
  j.member("build_type", host.build_type);
  j.member("sanitizer", host.sanitizer.empty() ? std::string("none") : host.sanitizer);
  j.member("git_sha", host.git_sha);
  j.member("git_dirty", host.git_dirty);
  j.member("seed", host.seed);
  j.end_object();
  j.member("correct", rep.errors.empty());
  j.member("attempted", rep.attempted);
  j.member("failed", rep.failed);
  j.key("metrics").begin_object();
  for (const Metric& m : rep.metrics) {
    j.key(m.name).begin_object();
    j.member_double("value", m.value, 9);
    j.member("unit", m.unit);
    j.member("samples", m.samples);
    j.end_object();
  }
  j.end_object();
  j.key("notes").begin_array();
  for (const auto& n : rep.notes) j.value(n);
  j.end_array();
  j.key("errors").begin_array();
  for (const auto& e : rep.errors) j.value(e);
  j.end_array();
  j.end_object();
  const std::string path = dir + "/" + w.name + "_seed" + std::to_string(host.seed) + "_trace" +
                           (trace ? "1" : "0") + ".json";
  std::ofstream(path) << j.str() << "\n";
  std::cout << "result file: " << path << "\n";
}

int run(const util::CliArgs& args) {
  const std::uint64_t seed = args.get_u64("seed", kDefaultSeed);
  if (args.has("emit-jobfile")) {
    std::cout << make_jobfile(args.get_string("emit-jobfile", ""), seed);
    return 0;
  }
  if (args.has("digest")) {
    const Workload& w = find_workload(args.get_string("digest", ""));
    serve::ServeService service(w.options());
    const auto results = service.run_jobs(serve::parse_jobfile(make_jobfile(w.name, seed)));
    std::cout << results_digest(results) << " " << cli_digest(results) << "\n";
    return 0;
  }

  const Workload& w = find_workload(args.get_string("workload", ""));
  const double seconds = args.get_double("seconds", 10);
  const bool trace = args.get_u64("trace", 0) != 0;
  const std::string results_dir = args.get_string("results-dir", "");
  const HostRecord host =
      host_record(args.get_string("git-sha", "unknown"), args.get_bool("git-dirty", false), seed);
  for (const auto& unused : args.unused()) {
    std::cerr << "perfbench: unknown flag --" << unused << "\n";
    return 2;
  }
  if (!(seconds > 0)) {
    std::cerr << "perfbench: --seconds must be positive\n";
    return 2;
  }

  std::cout << "perfbench " << w.name << " seed=" << seed << " trace=" << (trace ? 1 : 0)
            << " seconds=" << seconds << "\n"
            << "host: nproc=" << host.nproc << " cpu=\"" << host.cpu_model << "\"\n"
            << "build: " << host.compiler << ", " << host.build_type << ", sanitizer="
            << (host.sanitizer.empty() ? "none" : host.sanitizer) << ", git " << host.git_sha
            << (host.git_dirty ? " (dirty)" : "") << "\n";
  if (!host.sanitizer.empty()) {
    std::cerr << "perfbench: refusing to report timings from a " << host.sanitizer
              << "-sanitized build\n";
    return 3;
  }

  const RunReport rep = trace ? run_traced(w, seed, seconds) : run_end_to_end(w, seed, seconds);
  for (const auto& note : rep.notes) std::cout << "  " << note << "\n";
  for (const Metric& m : rep.metrics) {
    std::cout << "  " << std::left << std::setw(36) << m.name << std::right << std::setw(16)
              << number(m.value) << " " << std::left << std::setw(8) << m.unit << std::right
              << " n=" << m.samples << "\n";
  }
  for (const auto& e : rep.errors) std::cerr << "perfbench: INCORRECT: " << e << "\n";
  if (!results_dir.empty()) write_result_file(results_dir, w, trace, seconds, host, rep);
  std::cout << result_line(rep) << std::endl;
  return rep.errors.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(util::CliArgs(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
