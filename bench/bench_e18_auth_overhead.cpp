// E18 — what authenticated messaging costs.
//
// MpcConfig::authenticate_messages appends a 64-bit RO-derived MAC to every
// message and verifies every delivery at the round barrier (mpc/auth.hpp).
// The model meters those bits like any protocol bits, so the overhead is
// exactly quantifiable: communication grows by fan-in * 64 bits per round,
// rounds and outputs do not change at all, and the wall-clock cost is the
// tag derivation + verification: per message, one hash::sha256_expand_u64
// call to tag and one to verify, each a single two-block SHA-256
// compression for bodies of up to 568 bits. This
// bench pins all three for an oracle-model strategy and a plain-model one,
// and mirrors the table to BENCH_e18.json for regression tracking. A row's
// wall time is the median of kRuns runs, each on a fresh strategy and
// oracle, with the quartiles beside it: one run of a few milliseconds
// moves by tens of percent from one run to the next.
#include <chrono>
#include <fstream>
#include <functional>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "core/line.hpp"
#include "mpc/auth.hpp"
#include "ram/machine.hpp"
#include "ram/programs.hpp"
#include "strategies/pointer_chasing.hpp"
#include "strategies/ram_emulation.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

using namespace mpch;

namespace {

constexpr int kRuns = 31;

struct Measurement {
  bool completed = false;
  std::uint64_t rounds = 0;
  std::uint64_t total_bits = 0;
  std::uint64_t messages = 0;
  double wall_ms = 0.0;  ///< median over kRuns
  double wall_ms_q1 = 0.0;
  double wall_ms_q3 = 0.0;
  util::BitString output;
};

/// What one run needs, built fresh for every run so that no strategy
/// cache or oracle memo carries over from the previous one.
struct RunSetup {
  std::unique_ptr<mpc::MpcAlgorithm> algo;
  std::vector<util::BitString> initial;
  std::shared_ptr<hash::RandomOracle> oracle;
};

Measurement measure(const std::function<RunSetup()>& setup, mpc::MpcConfig config,
                    bool authenticate) {
  config.authenticate_messages = authenticate;
  if (authenticate) config.local_memory_bits += mpc::kTagMemoryHeadroomBits;
  Measurement m;
  std::vector<double> wall_ms;
  for (int run = 0; run < kRuns; ++run) {
    RunSetup s = setup();
    mpc::MpcSimulation sim(config, std::move(s.oracle));
    auto t0 = std::chrono::steady_clock::now();
    mpc::MpcRunResult result = sim.run(*s.algo, s.initial);
    auto t1 = std::chrono::steady_clock::now();
    wall_ms.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
    m.completed = result.completed;
    m.rounds = result.rounds_used;
    m.total_bits = result.trace.total_communicated_bits();
    m.messages = 0;
    for (const auto& r : result.trace.rounds()) m.messages += r.messages;
    m.output = result.output;
  }
  m.wall_ms = bench::percentile(wall_ms, 0.50);
  m.wall_ms_q1 = bench::percentile(wall_ms, 0.25);
  m.wall_ms_q3 = bench::percentile(wall_ms, 0.75);
  return m;
}

}  // namespace

int main() {
  bench::header("E18", "Authenticated messaging overhead (mpc/auth.hpp)",
                "auth adds exactly 64 bits x message count to communication, zero rounds, "
                "and a small constant per-message CPU cost");

  util::JsonWriter json;  // the BENCH_e18.json mirror of the table
  json.begin_array();
  auto json_row = [&](const std::string& name, bool authenticate, const Measurement& m) {
    json.begin_object()
        .member("strategy", name)
        .member("authenticate", authenticate)
        .member("rounds", m.rounds)
        .member("messages", m.messages)
        .member("comm_bits", m.total_bits)
        .member_double("wall_ms", m.wall_ms)
        .member_double("wall_ms_q1", m.wall_ms_q1)
        .member_double("wall_ms_q3", m.wall_ms_q3)
        .end_object();
  };
  util::Table t({"strategy", "auth", "rounds", "messages", "comm_bits", "bits_overhead",
                 "wall_ms", "wall_ms_q1", "wall_ms_q3", "output_identical"});
  bool all_ok = true;

  auto record = [&](const std::string& name, const Measurement& off, const Measurement& on) {
    // The metered contract: same rounds, same output, and the bit growth is
    // exactly one kMessageTagBits tag per message.
    bool identical = on.completed && off.completed && on.output == off.output &&
                     on.rounds == off.rounds &&
                     on.total_bits == off.total_bits + mpc::kMessageTagBits * on.messages;
    all_ok = all_ok && identical;
    t.add(name, "off", off.rounds, off.messages, off.total_bits, 0,
          util::format_double(off.wall_ms, 2), util::format_double(off.wall_ms_q1, 2),
          util::format_double(off.wall_ms_q3, 2), "-");
    t.add(name, "on", on.rounds, on.messages, on.total_bits, on.total_bits - off.total_bits,
          util::format_double(on.wall_ms, 2), util::format_double(on.wall_ms_q1, 2),
          util::format_double(on.wall_ms_q3, 2), identical);
    json_row(name, false, off);
    json_row(name, true, on);
  };

  {
    const std::uint64_t m = 4;
    core::LineParams p = core::LineParams::make(256, 16, 8, 96);
    util::Rng rng(77);
    const core::LineInput input = core::LineInput::random(p, rng);
    auto setup = [&] {
      auto strat = std::make_unique<strategies::PointerChasingStrategy>(
          p, strategies::OwnershipPlan::round_robin(p, m));
      auto initial = strat->make_initial_memory(input);
      return RunSetup{std::move(strat), std::move(initial),
                      std::make_shared<hash::LazyRandomOracle>(p.n, p.n, 18)};
    };
    mpc::MpcConfig c;
    c.machines = m;
    c.local_memory_bits =
        strategies::PointerChasingStrategy(p, strategies::OwnershipPlan::round_robin(p, m))
            .required_local_memory();
    c.query_budget = 1 << 20;
    c.max_rounds = 100000;
    c.tape_seed = 18;
    Measurement off = measure(setup, c, false);
    Measurement on = measure(setup, c, true);
    record("pointer-chasing", off, on);
  }

  {
    const std::uint64_t n = 64;
    std::vector<std::uint64_t> memory(n);
    for (std::uint64_t i = 0; i < n; ++i) memory[i] = (18 * 7 + i * 3) % 997;
    const std::vector<ram::Instruction> prog = ram::programs::sum(n);
    auto setup = [&] {
      auto strat = std::make_unique<strategies::RamEmulationStrategy>(prog, 4, 1);
      auto initial = strat->make_initial_memory(memory);
      return RunSetup{std::move(strat), std::move(initial), nullptr};
    };
    mpc::MpcConfig c;
    c.machines = 4;
    c.local_memory_bits =
        strategies::RamEmulationStrategy(prog, 4, 1).required_local_memory(memory.size());
    c.query_budget = 1;
    c.max_rounds = 1 << 20;
    c.tape_seed = 18;
    Measurement off = measure(setup, c, false);
    Measurement on = measure(setup, c, true);
    record("ram-emulation", off, on);
  }

  t.print(std::cout);
  std::cout << "\ninterpretation: bits_overhead == 64 x messages, rounds and outputs are\n"
               "untouched — authentication rides inside the existing schedule. The wall\n"
               "clock delta is the per-message tag derivation + barrier verification; it\n"
               "scales with message count, not with rounds or machine memory.\n";

  std::ofstream("BENCH_e18.json") << json.end_array().str() << "\n";
  std::cout << "\nwall_ms is the median of " << kRuns
            << " runs per row, with its quartiles (steady_clock around MpcSimulation::run)\n";
  std::cout << "\nwrote BENCH_e18.json (strategy, authenticate, rounds, messages, comm_bits, "
               "wall_ms, wall_ms_q1, wall_ms_q3 per row)\n";

  if (!all_ok) {
    std::cerr << "auth-on run was not identical-modulo-tags to the auth-off run\n";
    return 1;
  }
  return 0;
}
