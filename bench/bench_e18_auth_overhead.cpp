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
// and mirrors the table to BENCH_e18.json for regression tracking.
#include <chrono>
#include <fstream>
#include <vector>

#include "bench_common.hpp"
#include "core/line.hpp"
#include "ram/machine.hpp"
#include "ram/programs.hpp"
#include "strategies/pointer_chasing.hpp"
#include "strategies/ram_emulation.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

using namespace mpch;

namespace {

struct Measurement {
  bool completed = false;
  std::uint64_t rounds = 0;
  std::uint64_t total_bits = 0;
  std::uint64_t messages = 0;
  double wall_ms = 0.0;
  util::BitString output;
};

Measurement measure(mpc::MpcAlgorithm& algo, mpc::MpcConfig config,
                    const std::vector<util::BitString>& initial,
                    std::shared_ptr<hash::RandomOracle> oracle, bool authenticate) {
  config.authenticate_messages = authenticate;
  if (authenticate) config.local_memory_bits += 1 << 16;  // headroom for the tags
  mpc::MpcSimulation sim(config, std::move(oracle));
  auto t0 = std::chrono::steady_clock::now();
  mpc::MpcRunResult result = sim.run(algo, initial);
  auto t1 = std::chrono::steady_clock::now();
  Measurement m;
  m.completed = result.completed;
  m.rounds = result.rounds_used;
  m.total_bits = result.trace.total_communicated_bits();
  for (const auto& r : result.trace.rounds()) m.messages += r.messages;
  m.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  m.output = result.output;
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
        .end_object();
  };
  util::Table t({"strategy", "auth", "rounds", "messages", "comm_bits", "bits_overhead",
                 "wall_ms", "output_identical"});
  bool all_ok = true;

  auto record = [&](const std::string& name, const Measurement& off, const Measurement& on) {
    // The metered contract: same rounds, same output, and the bit growth is
    // exactly one kMessageTagBits tag per message.
    bool identical = on.completed && off.completed && on.output == off.output &&
                     on.rounds == off.rounds &&
                     on.total_bits == off.total_bits + mpc::kMessageTagBits * on.messages;
    all_ok = all_ok && identical;
    t.add(name, "off", off.rounds, off.messages, off.total_bits, 0,
          util::format_double(off.wall_ms, 2), "-");
    t.add(name, "on", on.rounds, on.messages, on.total_bits, on.total_bits - off.total_bits,
          util::format_double(on.wall_ms, 2), identical);
    json_row(name, false, off);
    json_row(name, true, on);
  };

  {
    const std::uint64_t m = 4;
    core::LineParams p = core::LineParams::make(256, 16, 8, 96);
    util::Rng rng(77);
    core::LineInput input = core::LineInput::random(p, rng);
    strategies::PointerChasingStrategy strat(p, strategies::OwnershipPlan::round_robin(p, m));
    mpc::MpcConfig c;
    c.machines = m;
    c.local_memory_bits = strat.required_local_memory();
    c.query_budget = 1 << 20;
    c.max_rounds = 100000;
    c.tape_seed = 18;
    auto oracle_off = std::make_shared<hash::LazyRandomOracle>(p.n, p.n, 18);
    auto oracle_on = std::make_shared<hash::LazyRandomOracle>(p.n, p.n, 18);
    Measurement off = measure(strat, c, strat.make_initial_memory(input), oracle_off, false);
    Measurement on = measure(strat, c, strat.make_initial_memory(input), oracle_on, true);
    record("pointer-chasing", off, on);
  }

  {
    const std::uint64_t n = 64;
    std::vector<std::uint64_t> memory(n);
    for (std::uint64_t i = 0; i < n; ++i) memory[i] = (18 * 7 + i * 3) % 997;
    std::vector<ram::Instruction> prog = ram::programs::sum(n);
    strategies::RamEmulationStrategy strat(prog, 4, 1);
    mpc::MpcConfig c;
    c.machines = 4;
    c.local_memory_bits = strat.required_local_memory(memory.size());
    c.query_budget = 1;
    c.max_rounds = 1 << 20;
    c.tape_seed = 18;
    Measurement off = measure(strat, c, strat.make_initial_memory(memory), nullptr, false);
    Measurement on = measure(strat, c, strat.make_initial_memory(memory), nullptr, true);
    record("ram-emulation", off, on);
  }

  t.print(std::cout);
  std::cout << "\ninterpretation: bits_overhead == 64 x messages, rounds and outputs are\n"
               "untouched — authentication rides inside the existing schedule. The wall\n"
               "clock delta is the per-message tag derivation + barrier verification; it\n"
               "scales with message count, not with rounds or machine memory.\n";

  std::ofstream("BENCH_e18.json") << json.end_array().str() << "\n";
  std::cout << "\nwrote BENCH_e18.json (strategy, authenticate, rounds, messages, comm_bits, "
               "wall_ms per row)\n";

  if (!all_ok) {
    std::cerr << "auth-on run was not identical-modulo-tags to the auth-off run\n";
    return 1;
  }
  return 0;
}
