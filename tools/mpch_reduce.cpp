// mpch-reduce — statically verified reduction calculus over ProtocolSpecs.
//
//   mpch-reduce --catalog                 # print + check the built-in library
//   mpch-reduce --catalog --cross-check   # ... and pin observed peaks of each
//                                         # target inside the transformed envelope
//   mpch-reduce --check FILE              # check a reduction file (- = stdin)
//   mpch-reduce --self-check              # refute every built-in broken claim
//
// A reduction `name: source => target via term;` claims the target protocol
// inherits the source's envelope through the term's transfer functions. The
// checker proves it (target declared <= T(source declared), plus the theory
// round floor where applicable) or refutes it with static_checker-style
// provenance diagnostics. --cross-check adds the dynamic leg: run the target
// strategy instrumented and require observed RoundStats peaks <= T(source).
//
// Exit status: 0 every checked claim holds (and, under --self-check, every
// broken claim is refuted with the expected diagnostic), 1 any claim is
// refuted (or a broken one survives), 2 usage / malformed file / unknown
// spec name.
#include <iostream>
#include <string>
#include <vector>

#include "reduce/catalog.hpp"
#include "reduce/checker.hpp"
#include "reduce/reduction_file.hpp"
#include "serve/scenario.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

using namespace mpch;

namespace {

/// Resolve a cross-check runner for a file-declared reduction: scenario
/// strategies run plain, their "+auth" lifts run MAC'd. Returns an empty
/// function when the target is spec-only (checked statically, noted in the
/// output).
std::function<mpc::MpcRunResult(mpc::MpcConfig*)> resolve_runner(const std::string& target,
                                                                 std::uint64_t seed) {
  for (const std::string& name : serve::strategy_names()) {
    if (target == name) return reduce::scenario_runner(name, seed, false);
    if (target == name + "+auth") return reduce::scenario_runner(name, seed, true);
  }
  return {};
}

struct CheckOutcome {
  bool any_violation = false;
  bool any_checked = false;
};

/// Check one claim (and optionally cross-check it), streaming text or JSON.
void run_one(const reduce::ReductionReport& report,
             const std::function<mpc::MpcRunResult(mpc::MpcConfig*)>& runner, bool cross,
             const std::string& rationale, bool json, util::JsonWriter& jw,
             CheckOutcome& outcome) {
  outcome.any_checked = true;
  outcome.any_violation = outcome.any_violation || !report.ok();

  bool cross_ran = false;
  analysis::AnalysisReport cross_report;
  if (cross && report.ok() && runner) {
    mpc::MpcConfig config;
    mpc::MpcRunResult result = runner(&config);
    cross_report = reduce::cross_check_reduction(report, result, config);
    cross_ran = true;
    outcome.any_violation = outcome.any_violation || !cross_report.ok();
  }

  if (json) {
    report.to_json(jw);
    // Splice the cross-check verdict into the stream as its own object so
    // consumers see (static, dynamic) pairs in order.
    jw.begin_object();
    jw.member("name", report.reduction.name + "/cross-check");
    if (cross_ran) {
      jw.member("ok", cross_report.ok());
      jw.member("violations", static_cast<std::uint64_t>(cross_report.violations.size()));
    } else {
      jw.member("skipped", true);
    }
    jw.end_object();
    return;
  }

  std::cout << report.format() << "\n";
  if (!rationale.empty()) std::cout << "  rationale: " << rationale << "\n";
  if (cross) {
    if (cross_ran) {
      std::cout << "  cross-check: " << cross_report.format() << "\n";
    } else if (!report.ok()) {
      std::cout << "  cross-check: skipped (static check failed)\n";
    } else {
      std::cout << "  cross-check: skipped (no runnable target for '" << report.reduction.target
                << "')\n";
    }
  }
  std::cout << "\n";
}

int tool_main(const util::CliArgs& args) {
  if (args.get_bool("help", false)) {
    std::cout
        << "usage: mpch-reduce [--catalog] [--check FILE] [--cross-check] [--self-check]\n"
           "                   [--list-specs] [--format text|json] [--seed N]\n"
           "  --catalog     : print and statically check the built-in reduction library\n"
           "                  (the default when no mode is given)\n"
           "  --check FILE  : check a reduction file (- = stdin) against the built-in\n"
           "                  spec catalog; grammar: name: src => dst via term, ...;\n"
           "  --cross-check : also run each target strategy instrumented and require\n"
           "                  observed RoundStats peaks <= transformed envelope\n"
           "  --self-check  : refute every built-in deliberately-broken reduction;\n"
           "                  each must fail with its expected diagnostic kind\n"
           "  --list-specs  : print the named specs reductions can reference\n"
           "exit: 0 all claims hold, 1 a claim is refuted (or a broken one survives),\n"
           "      2 usage / malformed file / unknown spec\n";
    return 0;
  }

  const std::uint64_t seed = args.get_u64("seed", 1);
  const bool cross = args.get_bool("cross-check", false);
  const bool self_check = args.get_bool("self-check", false);
  const bool list_specs = args.get_bool("list-specs", false);
  const std::string check_file = args.get_string("check", "");
  bool catalog = args.get_bool("catalog", false);
  if (!catalog && check_file.empty() && !self_check && !list_specs) catalog = true;

  const bool json = args.get_choice("format", "text", {"text", "json"}) == "json";
  args.reject_unknown();

  reduce::BuiltinCatalog lib = reduce::build_builtin_catalog(seed);

  if (list_specs) {
    for (const auto& [name, spec] : lib.specs.all()) {
      std::cout << name << ": " << spec.summary() << "\n";
    }
    return 0;
  }

  CheckOutcome outcome;
  util::JsonWriter jw;
  jw.begin_object();
  jw.key("reductions").begin_array();

  if (catalog) {
    for (const reduce::CatalogEntry& entry : lib.entries) {
      reduce::ReductionReport report =
          reduce::check_reduction(entry.reduction, lib.specs, entry.floor_rounds);
      run_one(report, entry.run_target, cross, entry.rationale, json, jw, outcome);
    }
  }

  if (!check_file.empty()) {
    const std::vector<reduce::Reduction> reductions =
        reduce::parse_reduction_file(util::read_input(check_file));
    for (const reduce::Reduction& r : reductions) {
      reduce::ReductionReport report = reduce::check_reduction(r, lib.specs);
      run_one(report, resolve_runner(r.target, seed), cross, "", json, jw, outcome);
    }
    if (reductions.empty() && !json) {
      std::cout << "(no reductions declared in " << check_file << ")\n";
    }
  }
  jw.end_array();

  // The self-check matrix (mpch-model's mutation-matrix idiom): every broken
  // claim must be refuted, and refuted for the *expected reason*.
  bool matrix_ok = true;
  jw.key("self_check").begin_array();
  if (self_check) {
    for (const reduce::BrokenEntry& broken : lib.broken) {
      reduce::ReductionReport report = reduce::check_reduction(broken.reduction, lib.specs);
      const bool refuted = !report.ok();
      const bool right_reason =
          refuted && !report.dominance.violations.empty() &&
          report.dominance.violations.front().kind == broken.expected;
      matrix_ok = matrix_ok && right_reason;
      if (json) {
        jw.begin_object();
        jw.member("name", broken.reduction.name);
        jw.member("expected", analysis::violation_kind_name(broken.expected));
        jw.member("refuted", refuted);
        jw.member("right_reason", right_reason);
        jw.end_object();
      } else {
        std::cout << broken.reduction.name << ": "
                  << (right_reason
                          ? std::string("refuted [") +
                                analysis::violation_kind_name(broken.expected) + "]"
                          : (refuted ? "refuted for the WRONG reason"
                                     : "SURVIVED — the checker cannot see this bad claim"))
                  << " (" << broken.why << ")\n";
        if (!report.dominance.violations.empty()) {
          std::cout << "  first diagnostic: " << report.dominance.violations.front().to_string()
                    << "\n";
        }
      }
    }
    if (!json) {
      std::cout << (matrix_ok ? "self-check: all broken claims refuted with expected diagnostics"
                              : "self-check: FAILURE")
                << "\n";
    }
  }
  jw.end_array();

  const bool ok = !outcome.any_violation && matrix_ok;
  jw.member("ok", ok);
  jw.end_object();
  if (json) std::cout << jw.str() << "\n";

  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return util::run_tool("mpch-reduce", argc, argv, tool_main);
}
