// mpch-analyze — static model-conformance checker for the in-tree MPC
// strategies.
//
//   mpch-analyze                      # static-check every strategy's spec
//   mpch-analyze --strategy full-memory --q 10   # seed a query violation
//   mpch-analyze --soundness          # also run each strategy instrumented
//                                     # and assert observed <= declared
//
// Every strategy publishes a ProtocolSpec (analysis/protocol_spec.hpp); this
// tool builds each strategy under its documented MpcConfig — derived from
// the spec itself, so the stock invocation passes clean — and reports
// PASS/FAIL per strategy with machine/round provenance on each violation.
// Override knobs (--s, --q, --rounds, --m-cap) shrink the config below the
// documented one to demonstrate rejections without executing anything.
//
// Exit status: 0 all checked strategies conform, 1 any violation, 2 usage.
#include <algorithm>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/spec_soundness.hpp"
#include "analysis/static_checker.hpp"
#include "core/line.hpp"
#include "hash/random_oracle.hpp"
#include "mpc/simulation.hpp"
#include "ram/machine.hpp"
#include "ram/programs.hpp"
#include "verify/abstract_interpreter.hpp"
#include "strategies/batch_pointer_chasing.hpp"
#include "strategies/colluding.hpp"
#include "strategies/dictionary.hpp"
#include "strategies/full_memory.hpp"
#include "strategies/pipelined_simline.hpp"
#include "strategies/pointer_chasing.hpp"
#include "strategies/ram_emulation.hpp"
#include "strategies/speculative.hpp"
#include "util/cli.hpp"

using namespace mpch;

namespace {

/// One checkable strategy: its declared spec, the documented config it is
/// meant to run under, and (for --soundness) a closure that actually runs it
/// instrumented and returns the trace.
struct Target {
  std::string name;
  analysis::ProtocolSpec spec;
  mpc::MpcConfig config;
  std::function<mpc::MpcRunResult(const mpc::MpcConfig&)> run;
  std::string note;  ///< provenance of the spec (e.g. statically derived hints)
};

/// The documented MpcConfig for a spec: exactly the envelope the strategy
/// declares (s = worst memory/delivery, q as given, rounds = declared), so
/// check_spec passes by construction until a CLI override shrinks it.
mpc::MpcConfig documented_config(const analysis::ProtocolSpec& spec, std::uint64_t q) {
  mpc::MpcConfig c;
  c.machines = spec.machines;
  c.max_rounds = spec.max_rounds;
  c.query_budget = q;
  std::uint64_t s = 0;
  for (std::uint64_t shape = 0; shape < spec.distinct_round_shapes(); ++shape) {
    std::uint64_t round = shape < spec.prologue.size() ? shape : spec.prologue.size();
    const analysis::RoundEnvelope& env = spec.envelope(round);
    s = std::max({s, env.memory_bits, env.recv_bits});
  }
  c.local_memory_bits = s;
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliArgs args(argc, argv);
  if (args.get_bool("help", false)) {
    std::cout
        << "usage: mpch-analyze [--strategy all|<name>] [--soundness] [--authenticate] [--list]\n"
           "  --format text|json : json emits {\"strategies\":[...]} with one object per\n"
           "                       checked strategy (same shape family as mpch-verify)\n"
           "  problem size : --u N --v N --w N --machines N --instances N\n"
           "                 --guesses N --steps-per-round N --seed N\n"
           "  config knobs : --s BITS --q N --rounds N --m-cap N\n"
           "                 (shrink below the documented config to seed "
           "violations)\n"
           "  --authenticate : check (and with --soundness, run) every strategy under\n"
           "                   MAC-tagged messaging; specs are lifted via\n"
           "                   ProtocolSpec::with_authentication so per-message tag\n"
           "                   overhead is part of the declared envelope\n"
           "  --transport  : in-process|socket — backend for --soundness\n"
           "                 runs (--transport-procs N for socket router count). The\n"
           "                 measured envelope is transport-invariant; running the\n"
           "                 soundness pass over a byte backend demonstrates it\n";
    return 0;
  }

  const std::uint64_t u = args.get_u64("u", 16);
  const std::uint64_t v = args.get_u64("v", 32);
  const std::uint64_t w = args.get_u64("w", 256);
  const std::uint64_t m = args.get_u64("machines", 4);
  const std::uint64_t k = args.get_u64("instances", 4);
  const std::uint64_t guesses = args.get_u64("guesses", 4);
  const std::uint64_t steps_per_round = args.get_u64("steps-per-round", 1);
  const std::uint64_t seed = args.get_u64("seed", 1);
  const std::uint64_t n = 64;
  const std::string which = args.get_string("strategy", "all");
  const bool soundness = args.get_bool("soundness", false);
  const bool authenticate = args.get_bool("authenticate", false);
  const std::string format = args.get_string("format", "text");
  if (format != "text" && format != "json") {
    std::cerr << "mpch-analyze: unknown --format '" << format << "' (text|json)\n";
    return 2;
  }
  const bool json = format == "json";
  transport::TransportKind transport_kind = transport::TransportKind::kInProcess;
  try {
    transport_kind = transport::parse_transport_kind(args.get_string("transport", "in-process"));
  } catch (const std::invalid_argument& e) {
    std::cerr << "mpch-analyze: " << e.what() << "\n";
    return 2;
  }
  const std::uint64_t transport_procs = args.get_u64("transport-procs", 0);

  core::LineParams p = core::LineParams::make(n, u, v, w);

  // Shared run scaffolding for the Line-family strategies.
  auto line_run = [&](auto& strat, auto make_memory, bool needs_oracle) {
    return [&strat, make_memory, needs_oracle, n = p.n, seed](const mpc::MpcConfig& c) {
      auto oracle = needs_oracle ? std::make_shared<hash::LazyRandomOracle>(n, n, seed) : nullptr;
      mpc::MpcSimulation sim(c, oracle);
      return sim.run(strat, make_memory());
    };
  };

  util::Rng rng(seed * 31);
  core::LineInput input = core::LineInput::random(p, rng);
  std::vector<core::LineInput> batch_inputs;
  for (std::uint64_t i = 0; i < k; ++i) {
    util::Rng r(seed * 97 + i);
    batch_inputs.push_back(core::LineInput::random(p, r));
  }

  // Strategy instances outlive the target list (run closures hold refs).
  strategies::PointerChasingStrategy chase(p, strategies::OwnershipPlan::round_robin(p, m));
  strategies::ColludingStrategy collude(p, strategies::OwnershipPlan::round_robin(p, m));
  strategies::PipelinedSimLineStrategy pipelined(
      p, strategies::OwnershipPlan::windows(p, m, std::max<std::uint64_t>(1, v / m)));
  strategies::SpeculativeConfig spec_cfg{guesses, true};
  strategies::SpeculativeStrategy speculative(p, strategies::OwnershipPlan::round_robin(p, m),
                                              spec_cfg, input);
  strategies::FullMemoryStrategy full(p, strategies::OwnershipPlan::round_robin(p, m));
  strategies::DictionaryStrategy dict(p, m);
  strategies::BatchPointerChasingStrategy batch(p, strategies::OwnershipPlan::round_robin(p, m),
                                                k);

  const std::uint64_t ram_machines = std::max<std::uint64_t>(2, m);
  std::vector<std::uint64_t> ram_memory(8);
  for (std::uint64_t i = 0; i < ram_memory.size(); ++i) ram_memory[i] = i + 1;
  auto prog = ram::programs::sum(ram_memory.size());
  // The spec hints are *derived*, not trusted: the static verifier proves
  // termination plus worst-case step/footprint bounds for the program, and
  // the declared envelope is built from those proven bounds (no native
  // pre-run, no hand-tuned constants). mpch-verify --cross-check pins the
  // same inferred spec against observed runtime peaks.
  const verify::ProgramFacts ram_facts =
      verify::analyze_program(prog, verify::MemoryModel::from_words(ram_memory));
  if (!ram_facts.terminates) {
    std::cerr << "ram-emulation: verifier could not prove termination of the sum program\n";
    return 2;
  }
  strategies::RamEmulationStrategy ram(prog, ram_machines, steps_per_round,
                                       ram_facts.touched_words, ram_facts.max_steps);

  std::vector<Target> targets;
  auto add = [&](analysis::ProtocolSpec spec, std::uint64_t q,
                 std::function<mpc::MpcRunResult(const mpc::MpcConfig&)> run) {
    // Under --authenticate the declared envelope must absorb the per-message
    // tag the runtime meters, and the documented config follows suit.
    if (authenticate) spec = spec.with_authentication(mpc::kMessageTagBits);
    targets.push_back({spec.protocol, spec, documented_config(spec, q), std::move(run), {}});
  };
  add(chase.protocol_spec(), 4, line_run(chase, [&] { return chase.make_initial_memory(input); },
                                         true));
  add(collude.protocol_spec(), 4,
      line_run(collude, [&] { return collude.make_initial_memory(input); }, true));
  add(pipelined.protocol_spec(), 4,
      line_run(pipelined, [&] { return pipelined.make_initial_memory(input); }, true));
  add(speculative.protocol_spec(), 4,
      line_run(speculative, [&] { return speculative.make_initial_memory(input); }, true));
  add(full.protocol_spec(), p.w,
      line_run(full, [&] { return full.make_initial_memory(input); }, true));
  add(dict.protocol_spec(), p.w,
      line_run(dict, [&] { return dict.make_initial_memory(input); }, true));
  add(batch.protocol_spec(), 4,
      line_run(batch, [&] { return batch.make_initial_memory(batch_inputs); }, true));
  add(ram.protocol_spec(), 0,
      line_run(ram, [&] { return ram.make_initial_memory(ram_memory); }, false));
  targets.back().note = "spec hints derived by the static verifier: " + ram_facts.summary();

  if (args.get_bool("list", false)) {
    for (const auto& t : targets) std::cout << t.name << "\n";
    return 0;
  }

  bool any_checked = false;
  bool any_violation = false;
  std::ostringstream json_out;
  for (auto& t : targets) {
    if (which != "all" && which != t.name) continue;

    // Apply config overrides (shrinking below documented seeds violations).
    mpc::MpcConfig c = t.config;
    c.authenticate_messages = authenticate;
    c.transport = transport_kind;
    c.transport_processes = transport_procs;
    if (args.has("s")) c.local_memory_bits = args.get_u64("s", c.local_memory_bits);
    if (args.has("q")) c.query_budget = args.get_u64("q", c.query_budget);
    if (args.has("rounds")) c.max_rounds = args.get_u64("rounds", c.max_rounds);
    if (args.has("m-cap")) c.machines = args.get_u64("m-cap", c.machines);

    if (!json) {
      std::cout << t.spec.summary() << "\n";
      if (!t.note.empty()) std::cout << "  " << t.note << "\n";
      std::cout << "  config: m=" << c.machines << " s=" << c.local_memory_bits
                << " q=" << c.query_budget << " max_rounds=" << c.max_rounds << "\n";
    }

    analysis::AnalysisReport report = analysis::check_spec(t.spec, c);
    if (!json) std::cout << "  static: " << report.format() << "\n";
    any_violation = any_violation || !report.ok();

    json_out << (any_checked ? "," : "") << "{\"name\":\"" << t.name << "\",\"config\":{"
             << "\"machines\":" << c.machines << ",\"local_memory_bits\":" << c.local_memory_bits
             << ",\"query_budget\":" << c.query_budget << ",\"max_rounds\":" << c.max_rounds
             << "},\"static\":" << report.to_json();
    any_checked = true;

    if (soundness) {
      if (!report.ok()) {
        if (!json) {
          std::cout << "  soundness: skipped (static check failed; the run would "
                       "trip the same guards at runtime)\n";
        }
        json_out << ",\"soundness\":null";
      } else {
        mpc::MpcRunResult result = t.run(c);
        analysis::AnalysisReport sound = analysis::check_soundness(t.spec, result, c);
        if (!json) {
          std::cout << "  soundness: " << sound.format() << " (rounds_used=" << result.rounds_used
                    << ")\n";
        }
        json_out << ",\"soundness\":" << sound.to_json()
                 << ",\"rounds_used\":" << result.rounds_used;
        any_violation = any_violation || !sound.ok();
      }
    }
    json_out << "}";
    if (!json) std::cout << "\n";
  }
  if (json && any_checked) {
    std::cout << "{\"ok\":" << (any_violation ? "false" : "true") << ",\"strategies\":["
              << json_out.str() << "]}\n";
  }

  if (!any_checked) {
    std::cerr << "unknown strategy '" << which << "' (try --list)\n";
    return 2;
  }
  for (const auto& unused : args.unused()) {
    std::cerr << "warning: unused flag --" << unused << "\n";
  }
  return any_violation ? 1 : 0;
}
