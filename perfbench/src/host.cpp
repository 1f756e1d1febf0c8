// Host and build record written into every result file.
#include <sched.h>

#include <fstream>
#include <thread>

#include "perfbench.hpp"

namespace perfbench {

namespace {

std::string detected_sanitizer() {
  std::string found = PERFBENCH_FLAGS_SANITIZER;  // -fsanitize= in the build's flags
#if defined(__SANITIZE_ADDRESS__)
  if (found.empty()) found = "address";
#endif
#if defined(__SANITIZE_THREAD__)
  if (found.empty()) found = "thread";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
  if (found.empty()) found = "address";
#endif
#if __has_feature(thread_sanitizer)
  if (found.empty()) found = "thread";
#endif
#if __has_feature(undefined_behavior_sanitizer)
  if (found.empty()) found = "undefined";
#endif
#endif
  return found;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

std::uint64_t online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return std::thread::hardware_concurrency();
}

}  // namespace

HostRecord host_record(std::string git_sha, bool git_dirty, std::uint64_t seed) {
  HostRecord h;
  h.nproc = online_cpus();
  h.cpu_model = cpu_model();
  h.compiler = PERFBENCH_COMPILER;
#if defined(__VERSION__)
  h.compiler += std::string(" (") + __VERSION__ + ")";
#endif
  h.build_type = PERFBENCH_BUILD_TYPE;
  h.sanitizer = detected_sanitizer();
  h.git_sha = std::move(git_sha);
  h.git_dirty = git_dirty;
  h.seed = seed;
  return h;
}

}  // namespace perfbench
