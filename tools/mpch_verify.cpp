// mpch-verify — static bytecode verifier for the checked-in word-RAM
// programs.
//
//   mpch-verify                         # verify every corpus program
//   mpch-verify --program pointer-chase --format json
//   mpch-verify --cross-check           # + sandwich: run each program under
//                                       # MPC emulation and assert observed
//                                       # RoundStats peaks <= inferred spec
//   mpch-verify --hostile               # assert known-bad programs REJECT
//
// Each program runs through three passes (verify/): structural bytecode
// checks (opcodes, registers, jump targets, fall-off), CFG hygiene
// (unreachable code, use-before-def), and the interval abstract interpreter
// (termination proof, worst-case steps, memory footprint). For terminating
// programs the derived facts feed infer_ram_emulation_spec, producing an
// envelope that is proven rather than hand-declared.
//
// Exit status: 0 all programs pass (no errors; warnings allowed unless
// --strict), 1 any error/strict-warning/failed cross-check, 2 usage.
#include <iostream>
#include <string>
#include <vector>

#include "analysis/spec_soundness.hpp"
#include "analysis/static_checker.hpp"
#include "mpc/simulation.hpp"
#include "ram/machine.hpp"
#include "ram/programs.hpp"
#include "strategies/ram_emulation.hpp"
#include "util/cli.hpp"
#include "verify/envelope.hpp"
#include "verify/verifier.hpp"

using namespace mpch;

namespace {

/// MpcConfig sized exactly to a spec (mirrors mpch-analyze's documented
/// config): s = worst declared memory/delivery, rounds = declared bound.
mpc::MpcConfig config_for(const analysis::ProtocolSpec& spec) {
  mpc::MpcConfig c;
  c.machines = spec.machines;
  c.max_rounds = spec.max_rounds;
  c.query_budget = 0;  // RAM emulation is plain-model
  std::uint64_t s = 0;
  for (std::uint64_t shape = 0; shape < spec.distinct_round_shapes(); ++shape) {
    const std::uint64_t round = shape < spec.prologue.size() ? shape : spec.prologue.size();
    const analysis::RoundEnvelope& env = spec.envelope(round);
    s = std::max({s, env.memory_bits, env.recv_bits});
  }
  c.local_memory_bits = s;
  return c;
}

/// The sandwich's lower half: emulate the program under MPC with the
/// inferred spec's config and assert every observed RoundStats peak fits
/// under the inferred envelope; also confirm the emulated final state
/// matches a native run bit for bit. Returns true on success.
bool cross_check(const ram::programs::NamedProgram& entry, const verify::ProgramFacts& facts,
                 const verify::InferredRamSpec& inferred) {
  ram::RamMachine native(entry.program, entry.memory);
  const std::uint64_t native_steps = native.run(facts.max_steps + 1);
  if (native_steps > facts.max_steps || !native.state().halted) {
    std::cout << "  cross-check: FAIL (native run took " << std::to_string(native_steps)
              << " steps, bound was " << facts.max_steps << ")\n";
    return false;
  }

  strategies::RamEmulationStrategy strategy(entry.program, inferred.spec.machines,
                                            entry.steps_per_round, inferred.memory_words,
                                            inferred.max_steps);
  const mpc::MpcConfig config = config_for(inferred.spec);
  mpc::MpcSimulation sim(config, nullptr);
  mpc::MpcRunResult result = sim.run(strategy, strategy.make_initial_memory(entry.memory));
  if (!result.completed) {
    std::cout << "  cross-check: FAIL (emulation did not complete in " << config.max_rounds
              << " rounds)\n";
    return false;
  }
  if (!(strategies::RamEmulationStrategy::parse_output(result.output) == native.state())) {
    std::cout << "  cross-check: FAIL (emulated state differs from native)\n";
    return false;
  }
  const analysis::AnalysisReport sound =
      analysis::check_soundness(inferred.spec, result, config);
  if (!sound.ok()) {
    std::cout << "  cross-check: FAIL (observed peaks exceed the inferred envelope)\n"
              << sound.format() << "\n";
    return false;
  }
  std::cout << "  cross-check: observed peaks <= inferred envelope over " << result.rounds_used
            << " rounds; emulated state == native (" << native_steps << " steps)\n";
  return true;
}

/// Known-bad programs: each must be REJECTED (an error finding). Exercised
/// in CI so the rejection path cannot rot.
bool run_hostile_suite() {
  using namespace ram::asm_ops;
  struct Hostile {
    std::string name;
    std::vector<ram::Instruction> program;
  };
  const std::vector<Hostile> suite = {
      {"empty", {}},
      {"jump-past-end", {loadi(0, 1), jmp(999), halt()}},
      {"bad-register", {{ram::Opcode::kAdd, 9, 0, 0, 0}, halt()}},
      {"bad-opcode", {{static_cast<ram::Opcode>(200), 0, 0, 0, 0}, halt()}},
      {"falls-off-end", {loadi(0, 1)}},
  };
  bool all_rejected = true;
  for (const Hostile& h : suite) {
    const verify::VerifyReport report = verify::verify_program(h.name, h.program);
    const bool rejected = !report.ok();
    std::cout << "hostile/" << h.name << ": " << (rejected ? "rejected" : "ACCEPTED (bug!)")
              << "\n";
    all_rejected = all_rejected && rejected;
  }
  return all_rejected;
}

int tool_main(const util::CliArgs& args) {
  if (args.get_bool("help", false)) {
    std::cout << "usage: mpch-verify [--program all|<name>] [--list] [--format text|json]\n"
                 "                   [--machines N] [--strict] [--cross-check] [--hostile]\n"
                 "  --strict      : warnings also fail (exit 1)\n"
                 "  --cross-check : emulate each program under MPC and assert observed\n"
                 "                  RoundStats peaks <= the statically inferred envelope\n"
                 "  --hostile     : verify the built-in known-bad programs are rejected\n";
    return 0;
  }

  const std::string which = args.get_string("program", "all");
  const std::string format = args.get_string("format", "text");
  const std::uint64_t machines = args.get_u64("machines", 4);
  const bool strict = args.get_bool("strict", false);
  const bool do_cross_check = args.get_bool("cross-check", false);
  const bool hostile = args.get_bool("hostile", false);
  const bool list = args.get_bool("list", false);
  args.reject_unknown();

  if (format != "text" && format != "json") {
    std::cerr << "unknown --format '" << format << "' (text|json)\n";
    return 2;
  }
  if (machines < 2) {
    std::cerr << "--machines must be >= 2 (one CPU + at least one server)\n";
    return 2;
  }

  const auto corpus = ram::programs::corpus();
  if (list) {
    for (const auto& entry : corpus) std::cout << entry.name << "\n";
    return 0;
  }

  if (hostile) return run_hostile_suite() ? 0 : 1;

  bool any_checked = false;
  bool failed = false;
  std::string json = "{\"programs\":[";
  bool first_json = true;
  for (const auto& entry : corpus) {
    if (which != "all" && which != entry.name) continue;
    any_checked = true;

    verify::VerifyOptions options;
    options.memory = verify::MemoryModel::from_words(entry.memory);
    const verify::VerifyReport report = verify::verify_program(entry.name, entry.program, options);
    failed = failed || !report.ok() || (strict && !report.clean());

    if (format == "json") {
      json += (first_json ? "" : ",") + report.to_json();
      first_json = false;
    } else {
      std::cout << report.format() << "\n";
    }
    if (!report.facts || !report.facts->terminates) {
      if (do_cross_check && report.ok()) {
        std::cout << "  cross-check: skipped (no termination proof)\n";
      }
      continue;
    }

    const verify::InferredRamSpec inferred = verify::infer_ram_emulation_spec(
        entry.program, *report.facts, machines, entry.steps_per_round);
    if (format == "text") std::cout << "  inferred: " << inferred.spec.summary() << "\n";
    if (do_cross_check && !cross_check(entry, *report.facts, inferred)) failed = true;
  }
  if (format == "json") std::cout << json << "]}\n";

  if (!any_checked) {
    std::cerr << "unknown program '" << which << "' (try --list)\n";
    return 2;
  }
  return failed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::run_tool("mpch-verify", argc, argv, tool_main);
}
