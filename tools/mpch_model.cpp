// mpch-model — systematic state-space exploration of the transport and
// recovery protocols.
//
//   mpch-model                                  # explore all four protocols
//   mpch-model --protocol inbox --bound machines=2,messages=3,faults=1
//   mpch-model --mutate drop-seq-check --trace-out bug.trace
//   mpch-model --mutation-matrix                # checker self-check: every
//                                               # seeded protocol bug must
//                                               # yield a counterexample
//   mpch-model --replay bug.trace               # re-run a stored schedule
//   mpch-model --format json
//
// The explorer (src/check/) drives the *production* transition cores —
// transport/wire.hpp's InboxAssembler, transport/router_core.hpp's
// RouterCore, fault/recovery_core.hpp's restart and quarantine policies —
// through every bounded interleaving of deliveries, duplications, faults,
// and verdicts, checking exactly-once canonical inbox order, broadcast
// dedup, transcript equivalence, policy-spec conformance, livelock freedom,
// and outcome confluence. Violations are shrunk to minimal schedules and
// written as replayable trace files (see src/check/trace.hpp for the
// format; fuzz/corpus/model_trace/ holds the regression corpus).
//
// Exit status: 0 clean (explored with no violation; matrix all-killed;
// replayed schedule runs clean), 1 violation (counterexample found; matrix
// survivor; replayed schedule reproduces its violation), 2 usage or
// malformed trace.
#include <iostream>
#include <string>
#include <vector>

#include "check/explorer.hpp"
#include "check/models.hpp"
#include "check/trace.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

using namespace mpch;

namespace {

check::Explorer make_explorer(const check::ModelBounds& bounds) {
  check::ExplorerOptions options;
  options.max_depth = bounds.depth;
  options.max_states = bounds.states;
  return check::Explorer(options);
}

/// One explored protocol, for both output formats.
struct ProtocolRun {
  std::string protocol;
  std::string mutation;
  check::ExploreResult result;
};

ProtocolRun explore_one(const std::string& protocol, const check::ModelBounds& bounds,
                        const std::string& mutation) {
  std::unique_ptr<check::Model> model = check::make_model(protocol, bounds, mutation);
  ProtocolRun run;
  run.protocol = protocol;
  run.mutation = mutation;
  run.result = make_explorer(bounds).run(*model);
  return run;
}

void print_text(const ProtocolRun& run) {
  const check::ExploreStats& s = run.result.stats;
  std::cout << run.protocol;
  if (run.mutation != "none") std::cout << " [mutation: " << run.mutation << "]";
  std::cout << ": " << (run.result.ok() ? "ok" : "VIOLATION") << " — " << s.states_explored
            << " state(s), " << s.transitions << " transition(s), " << s.terminal_states
            << " complete schedule(s) over " << s.terminal_fingerprints
            << " distinct end state(s), deepest " << s.deepest << ", pruned "
            << s.pruned_converged << " converged + " << s.pruned_sleep << " sleeping";
  if (s.depth_bound_hit) std::cout << ", depth bound hit";
  if (s.state_bound_hit) std::cout << ", state bound hit";
  std::cout << "\n";
  if (!run.result.ok()) {
    const check::Counterexample& ce = *run.result.counterexample;
    std::cout << "  violation: " << ce.violation << "\n";
    std::cout << "  minimal schedule (" << ce.schedule.size() << " action(s)):\n";
    for (const check::Action& a : ce.schedule) {
      std::cout << "    " << a.label << "\n";
    }
  }
}

void to_json(const ProtocolRun& run, util::JsonWriter& w) {
  const check::ExploreStats& s = run.result.stats;
  w.begin_object();
  w.member("protocol", run.protocol);
  w.member("mutation", run.mutation);
  w.member("ok", run.result.ok());
  w.member("states", s.states_explored);
  w.member("transitions", s.transitions);
  w.member("complete_schedules", s.terminal_states);
  w.member("terminal_fingerprints", s.terminal_fingerprints);
  w.member("deepest", s.deepest);
  w.member("pruned_converged", s.pruned_converged);
  w.member("pruned_sleep", s.pruned_sleep);
  w.member("depth_bound_hit", s.depth_bound_hit);
  w.member("state_bound_hit", s.state_bound_hit);
  if (!run.result.ok()) {
    const check::Counterexample& ce = *run.result.counterexample;
    w.member("violation", ce.violation);
    w.key("schedule").begin_array();
    for (const check::Action& a : ce.schedule) {
      w.begin_object();
      w.member("key", a.key);
      w.member("label", a.label);
      w.end_object();
    }
    w.end_array();
  }
  w.end_object();
}

void save_counterexample(const std::string& path, const ProtocolRun& run,
                         const check::ModelBounds& bounds) {
  check::TraceFile trace;
  trace.protocol = run.protocol;
  trace.mutation = run.mutation;
  trace.bound = check::bounds_summary(bounds);
  trace.violation = run.result.counterexample->violation;
  trace.schedule = run.result.counterexample->schedule;
  check::save_trace(path, trace);
}

int run_replay(const std::string& path, const check::ModelBounds& bounds, bool json) {
  check::TraceFile trace = check::load_trace(path);  // Trace/ReplayError: run_tool's exit 2
  std::unique_ptr<check::Model> model = check::make_model(trace.protocol, bounds, trace.mutation);
  const check::ReplayOutcome outcome = make_explorer(bounds).replay(*model, trace.schedule);
  const bool reproduced = outcome.violation.has_value();
  if (json) {
    util::JsonWriter w;
    w.begin_object();
    w.member("replay", path);
    w.member("protocol", trace.protocol);
    w.member("mutation", trace.mutation);
    w.member("steps", outcome.steps);
    w.key("violation");
    if (reproduced) {
      w.value(*outcome.violation);
    } else {
      w.value_null();
    }
    w.end_object();
    std::cout << w.str() << "\n";
  } else {
    std::cout << "replay " << path << " (" << trace.protocol << ", mutation " << trace.mutation
              << "): ";
    if (reproduced) {
      std::cout << "violation reproduced at step " << outcome.steps << "\n  " << *outcome.violation
                << "\n";
    } else {
      std::cout << "schedule ran clean (" << outcome.steps << " step(s))\n";
    }
  }
  return reproduced ? 1 : 0;
}

int run_matrix(const check::ModelBounds& bounds, bool json, const std::string& trace_dir) {
  bool all_good = true;
  util::JsonWriter w;
  w.begin_object();
  w.key("matrix").begin_array();
  // Clean baselines first: a checker that flags the unmutated protocol is
  // as broken as one that misses every mutant.
  for (const std::string& protocol : check::protocol_names()) {
    const ProtocolRun run = explore_one(protocol, bounds, "none");
    all_good = all_good && run.result.ok();
    if (json) {
      to_json(run, w);
    } else {
      print_text(run);
    }
  }
  for (const check::MutationSpec& spec : check::mutation_registry()) {
    const ProtocolRun run = explore_one(spec.protocol, bounds, spec.name);
    const bool killed = !run.result.ok();
    all_good = all_good && killed;
    if (killed && !trace_dir.empty()) {
      save_counterexample(trace_dir + "/" + spec.name + ".trace", run, bounds);
    }
    if (json) {
      to_json(run, w);
    } else {
      const check::ExploreStats& s = run.result.stats;
      std::cout << "mutant " << spec.name << " (" << spec.protocol << "): "
                << (killed ? "killed" : "SURVIVED — the checker cannot see this bug") << " ("
                << s.states_explored << " state(s)";
      if (killed) {
        std::cout << ", counterexample of " << run.result.counterexample->schedule.size()
                  << " action(s)";
      }
      std::cout << ")\n";
      if (killed) {
        std::cout << "  " << run.result.counterexample->violation << "\n";
      }
    }
  }
  w.end_array();
  w.member("ok", all_good);
  w.end_object();
  if (json) {
    std::cout << w.str() << "\n";
  } else {
    std::cout << (all_good ? "mutation matrix: every seeded bug produced a counterexample\n"
                           : "mutation matrix: FAILED\n");
  }
  return all_good ? 0 : 1;
}

int tool_main(const util::CliArgs& args) {
  if (args.get_bool("help", false)) {
    std::cout
        << "usage: mpch-model [--protocol all|inbox|broadcast|recovery|quarantine]\n"
           "                  [--bound machines=2,rounds=2,messages=2,faults=1,depth=64,states=100000]\n"
           "                  [--mutate <name>] [--mutation-matrix] [--trace-out <file>]\n"
           "                  [--trace-dir <dir>] [--replay <file>] [--list-mutations]\n"
           "                  [--format text|json]\n"
           "  --bound           : unsigned decimal values, each key at most once\n"
           "  --mutate          : explore with one seeded protocol bug enabled\n"
           "  --mutation-matrix : explore every seeded bug; each must be killed\n"
           "  --trace-out       : write the counterexample as a replayable trace\n"
           "  --trace-dir       : (matrix) write every mutant's counterexample there\n"
           "  --replay          : re-run a stored trace against the current tree\n"
           "exit: 0 clean, 1 violation/survivor/reproduced, 2 usage or bad trace\n";
    return 0;
  }

  const bool json = args.get_choice("format", "text", {"text", "json"}) == "json";
  const std::string bound_spec = args.get_string("bound", "");
  const bool list_mutations = args.get_bool("list-mutations", false);
  const std::string replay_path = args.get_string("replay", "");
  const bool mutation_matrix = args.get_bool("mutation-matrix", false);
  const std::string trace_dir = args.get_string("trace-dir", "");
  const std::string mutation = args.get_string("mutate", "none");
  std::string protocol = args.get_string("protocol", "all");
  const std::string trace_out = args.get_string("trace-out", "");
  args.reject_unknown();
  const check::ModelBounds bounds = check::parse_bounds(bound_spec);

  if (list_mutations) {
    for (const check::MutationSpec& spec : check::mutation_registry()) {
      std::cout << spec.name << " (" << spec.protocol << "): " << spec.description << "\n";
    }
    return 0;
  }
  if (args.has("replay")) return run_replay(replay_path, bounds, json);
  if (mutation_matrix) return run_matrix(bounds, json, trace_dir);

  if (mutation != "none") {
    // A mutation names its protocol; --protocol may confirm but not conflict.
    for (const check::MutationSpec& spec : check::mutation_registry()) {
      if (spec.name == mutation && protocol == "all") protocol = spec.protocol;
    }
  }

  std::vector<std::string> protocols;
  if (protocol == "all") {
    protocols = check::protocol_names();
  } else {
    protocols.push_back(protocol);
  }

  bool violated = false;
  util::JsonWriter w;
  w.begin_object();
  w.key("protocols").begin_array();
  for (const std::string& p : protocols) {
    const ProtocolRun run = explore_one(p, bounds, mutation);
    violated = violated || !run.result.ok();
    if (!run.result.ok() && args.has("trace-out")) {
      save_counterexample(trace_out, run, bounds);
    }
    if (json) {
      to_json(run, w);
    } else {
      print_text(run);
    }
  }
  w.end_array();
  w.member("ok", !violated);
  w.end_object();
  if (json) std::cout << w.str() << "\n";

  return violated ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::run_tool("mpch-model", argc, argv, tool_main);
}
