// The three workloads. Each is a closed loop: the whole jobfile goes through
// serve's bounded queue and the pool workers are the clients. Jobs are a
// pure function of (workload, seed); the program only ever sees the jobfile.
#include <sstream>
#include <stdexcept>

#include "perfbench.hpp"
#include "serve/scenario.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

// Per strategy: 220 distinct job seeds, the first 66 of them run twice, so
// the shared memo both derives answers and serves hits in the same
// proportion for every workload seed.
constexpr std::uint64_t kOracleSweepDistinct = 220;
constexpr std::uint64_t kOracleSweepRepeated = 66;  // 286 jobs x 7 strategies = 2002
constexpr std::uint64_t kChattyAuthJobs = 1000;
constexpr std::uint64_t kChaosJobs = 400;

/// Job seeds of different workload seeds never overlap.
std::uint64_t seed_base(std::uint64_t seed) { return seed * 100003; }

// The oracle path does the work: SHA-256 derivation, memo hits, transcript
// records, BitString keys. No authentication, framing or checkpoints.
std::string oracle_sweep(std::uint64_t seed) {
  std::vector<std::string> strategies;
  for (const std::string& name : serve::strategy_names()) {
    if (name != "ram-emulation") strategies.push_back(name);  // the plain-model one
  }
  std::vector<std::string> lines;
  for (const std::string& name : strategies) {
    for (std::uint64_t i = 0; i < kOracleSweepDistinct + kOracleSweepRepeated; ++i) {
      lines.push_back("simulate strategy=" + name +
                      " seed=" + std::to_string(seed_base(seed) + i % kOracleSweepDistinct));
    }
  }
  util::Rng rng(seed);
  // Interleave strategies so every worker sees the mix.
  for (std::size_t i = lines.size(); i > 1; --i) std::swap(lines[i - 1], lines[rng.next_below(i)]);
  std::ostringstream out;
  out << "# oracle-sweep seed=" << seed << "\n";
  for (const auto& line : lines) out << line << "\n";
  return out.str();
}

// 63 rounds of tiny authenticated messages and no oracle queries: the round
// loop and the per-message MAC tag and verify dominate.
std::string chatty_auth(std::uint64_t seed) {
  std::ostringstream out;
  out << "# chatty-auth seed=" << seed << "\n"
      << "simulate strategy=ram-emulation authenticate=true seed=" << seed_base(seed)
      << " repeat=" << kChattyAuthJobs << "\n";
  return out.str();
}

// The only workload that captures, serializes and restores checkpoints and
// re-executes rounds through a fresh oracle's restore_table.
std::string chaos_restart(std::uint64_t seed) {
  util::Rng rng(seed);
  std::ostringstream out;
  out << "# chaos-restart seed=" << seed << "\n";
  for (std::uint64_t i = 0; i < kChaosJobs; ++i) {
    // Both faults land after the first checkpoint (round 3 with every=4) and
    // well before either strategy finishes (63+ rounds).
    const std::uint64_t crash_round = 4 + rng.next_below(16);
    const std::uint64_t drop_round = crash_round + 2 + rng.next_below(28);
    out << "chaos strategy=" << (i % 2 == 0 ? "pointer-chasing" : "ram-emulation")
        << " seed=" << seed_base(seed) + i << " plan=crash:machine=" << rng.next_below(4)
        << ",round=" << crash_round << ";drop:round=" << drop_round
        << ",to=" << rng.next_below(4) << ",index=0 policy=restart every=4\n";
  }
  return out.str();
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"oracle-sweep", "b41f6a859cc987e243faff3d0ab64e78"},
      {"chatty-auth", "2b999cbd42b5aabe5fce698ecc883531"},
      {"chaos-restart", "844121b1e1e896c76684987b8c6751e6"},
  };
  return kWorkloads;
}

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return w;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::string make_jobfile(const std::string& workload, std::uint64_t seed) {
  if (workload == "oracle-sweep") return oracle_sweep(seed);
  if (workload == "chatty-auth") return chatty_auth(seed);
  if (workload == "chaos-restart") return chaos_restart(seed);
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

}  // namespace perfbench
