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
// --format json prints one document on stdout and no text lines:
// {"programs":[...],"cross_checks":[...]} (cross_checks only under
// --cross-check), or {"hostile":[...]} under --hostile.
//
// Exit status: 0 all programs pass (no errors; warnings allowed unless
// --strict), 1 any error/strict-warning/failed cross-check, 2 usage.
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "analysis/spec_soundness.hpp"
#include "analysis/static_checker.hpp"
#include "mpc/simulation.hpp"
#include "ram/machine.hpp"
#include "ram/programs.hpp"
#include "strategies/ram_emulation.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "verify/envelope.hpp"
#include "verify/verifier.hpp"

using namespace mpch;

namespace {

/// One cross-check verdict: `detail` is what the text report prints after
/// "cross-check: " (a FAIL reason, or the observed-vs-inferred summary).
struct CrossCheck {
  bool ok = false;
  std::string detail;
};

/// The sandwich's lower half: emulate the program under MPC with the
/// inferred spec's config and assert every observed RoundStats peak fits
/// under the inferred envelope; also confirm the emulated final state
/// matches a native run bit for bit.
CrossCheck cross_check(const ram::programs::NamedProgram& entry, const verify::ProgramFacts& facts,
                       const verify::InferredRamSpec& inferred) {
  ram::RamMachine native(entry.program, entry.memory);
  const std::uint64_t native_steps = native.run(facts.max_steps + 1);
  if (native_steps > facts.max_steps || !native.state().halted) {
    return {false, "FAIL (native run took " + std::to_string(native_steps) +
                       " steps, bound was " + std::to_string(facts.max_steps) + ")"};
  }

  strategies::RamEmulationStrategy strategy(entry.program, inferred.spec.machines,
                                            entry.steps_per_round, inferred.memory_words,
                                            inferred.max_steps);
  const mpc::MpcConfig config = analysis::documented_config(inferred.spec, 0);
  mpc::MpcSimulation sim(config, nullptr);
  mpc::MpcRunResult result = sim.run(strategy, strategy.make_initial_memory(entry.memory));
  if (!result.completed) {
    return {false, "FAIL (emulation did not complete in " + std::to_string(config.max_rounds) +
                       " rounds)"};
  }
  if (!(strategies::RamEmulationStrategy::parse_output(result.output) == native.state())) {
    return {false, "FAIL (emulated state differs from native)"};
  }
  const analysis::AnalysisReport sound =
      analysis::check_soundness(inferred.spec, result, config);
  if (!sound.ok()) {
    return {false, "FAIL (observed peaks exceed the inferred envelope)\n" + sound.format()};
  }
  return {true, "observed peaks <= inferred envelope over " + std::to_string(result.rounds_used) +
                    " rounds; emulated state == native (" + std::to_string(native_steps) +
                    " steps)"};
}

/// Known-bad programs: each must be REJECTED (an error finding). Exercised
/// in CI so the rejection path cannot rot.
bool run_hostile_suite(bool json) {
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
  util::JsonWriter w;
  w.begin_object();
  w.key("hostile").begin_array();
  for (const Hostile& h : suite) {
    const verify::VerifyReport report = verify::verify_program(h.name, h.program);
    const bool rejected = !report.ok();
    w.begin_object();
    w.member("program", h.name);
    w.member("rejected", rejected);
    w.end_object();
    if (!json) {
      std::cout << "hostile/" << h.name << ": " << (rejected ? "rejected" : "ACCEPTED (bug!)")
                << "\n";
    }
    all_rejected = all_rejected && rejected;
  }
  w.end_array();
  w.end_object();
  if (json) std::cout << w.str() << "\n";
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
  const bool json = args.get_choice("format", "text", {"text", "json"}) == "json";
  const std::uint64_t machines = args.get_u64("machines", 4);
  const bool strict = args.get_bool("strict", false);
  const bool do_cross_check = args.get_bool("cross-check", false);
  const bool hostile = args.get_bool("hostile", false);
  const bool list = args.get_bool("list", false);
  args.reject_unknown();
  if (machines < 2) throw util::CliError("--machines must be >= 2 (one CPU + at least one server)");

  const auto corpus = ram::programs::corpus();
  if (list) {
    for (const auto& entry : corpus) std::cout << entry.name << "\n";
    return 0;
  }

  if (hostile) return run_hostile_suite(json) ? 0 : 1;

  bool any_checked = false;
  bool failed = false;
  util::JsonWriter w;
  w.begin_object();
  w.key("programs").begin_array();
  // In JSON the cross-check verdicts follow the programs array.
  std::vector<std::pair<std::string, std::optional<CrossCheck>>> cross_checks;
  for (const auto& entry : corpus) {
    if (which != "all" && which != entry.name) continue;
    any_checked = true;

    verify::VerifyOptions options;
    options.memory = verify::MemoryModel::from_words(entry.memory);
    const verify::VerifyReport report = verify::verify_program(entry.name, entry.program, options);
    failed = failed || !report.ok() || (strict && !report.clean());

    report.to_json(w);
    if (!json) std::cout << report.format() << "\n";
    if (!report.facts || !report.facts->terminates) {
      if (do_cross_check && report.ok()) {
        cross_checks.emplace_back(entry.name, std::nullopt);
        if (!json) std::cout << "  cross-check: skipped (no termination proof)\n";
      }
      continue;
    }

    const verify::InferredRamSpec inferred = verify::infer_ram_emulation_spec(
        entry.program, *report.facts, machines, entry.steps_per_round);
    if (!json) std::cout << "  inferred: " << inferred.spec.summary() << "\n";
    if (!do_cross_check) continue;
    const CrossCheck verdict = cross_check(entry, *report.facts, inferred);
    failed = failed || !verdict.ok;
    cross_checks.emplace_back(entry.name, verdict);
    if (!json) std::cout << "  cross-check: " << verdict.detail << "\n";
  }
  w.end_array();
  if (do_cross_check) {
    w.key("cross_checks").begin_array();
    for (const auto& [program, verdict] : cross_checks) {
      w.begin_object();
      w.member("program", program);
      if (verdict) {
        w.member("ok", verdict->ok);
        w.member("detail", verdict->detail);
      } else {
        w.member("skipped", true);
      }
      w.end_object();
    }
    w.end_array();
  }
  w.end_object();
  if (json) std::cout << w.str() << "\n";

  if (!any_checked) throw util::CliError("unknown program '" + which + "' (try --list)");
  return failed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::run_tool("mpch-verify", argc, argv, tool_main);
}
