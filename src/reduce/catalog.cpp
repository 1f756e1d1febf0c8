#include "reduce/catalog.hpp"

#include <cmath>
#include <memory>
#include <sstream>

#include "core/params.hpp"
#include "mpc/auth.hpp"
#include "ram/programs.hpp"
#include "serve/scenario.hpp"
#include "strategies/pointer_chasing.hpp"
#include "strategies/ram_emulation.hpp"
#include "theory/bounds.hpp"
#include "verify/abstract_interpreter.hpp"

namespace mpch::reduce {

namespace {

/// A RAM-emulation point in the (program size, machine count) family, built
/// exactly the way serve::make_scenario builds its ram-emulation scenario
/// (sum program, verifier-proven envelope hints) so the m=4/n=8 point here
/// is *the same spec* the rest of the tree runs.
struct RamPoint {
  std::vector<ram::Instruction> prog;
  std::vector<std::uint64_t> memory;
  std::shared_ptr<strategies::RamEmulationStrategy> strat;
};

RamPoint make_ram_point(std::uint64_t words, std::uint64_t machines, std::uint64_t seed) {
  RamPoint pt;
  pt.memory.resize(words);
  for (std::uint64_t i = 0; i < words; ++i) pt.memory[i] = (seed * 7 + i * 3) % 97;
  pt.prog = ram::programs::sum(words);
  const verify::ProgramFacts facts =
      verify::analyze_program(pt.prog, verify::MemoryModel::from_words(pt.memory));
  pt.strat = std::make_shared<strategies::RamEmulationStrategy>(
      pt.prog, machines, 1, facts.touched_words, facts.max_steps);
  return pt;
}

mpc::MpcConfig ram_config(const RamPoint& pt, std::uint64_t machines) {
  mpc::MpcConfig c;
  c.machines = machines;
  c.local_memory_bits = pt.strat->required_local_memory(pt.memory.size());
  c.query_budget = 1;
  c.max_rounds = 1 << 20;
  c.tape_seed = 5;
  return c;
}

Reduction make_reduction(const std::string& name, const std::string& source,
                         const std::string& target, Term term) {
  Reduction r;
  r.name = name;
  r.source = source;
  r.target = target;
  r.term = std::move(term);
  return r;
}

}  // namespace

std::function<mpc::MpcRunResult(mpc::MpcConfig*)> scenario_runner(const std::string& name,
                                                                  std::uint64_t seed,
                                                                  bool authenticate) {
  return [name, seed, authenticate](mpc::MpcConfig* config) {
    serve::Scenario sc = serve::make_scenario(name, seed, 0);
    serve::apply_run_options(&sc, transport::TransportKind::kInProcess, 0, authenticate);
    *config = sc.config;
    auto oracle = sc.make_oracle();
    mpc::MpcSimulation sim(sc.config, oracle);
    return sim.run(*sc.algo, sc.initial);
  };
}

BuiltinCatalog build_builtin_catalog(std::uint64_t seed) {
  BuiltinCatalog cat;

  // ---- named specs: the 8 scenario strategies and their MAC'd lifts.
  for (const std::string& name : serve::strategy_names()) {
    serve::Scenario sc = serve::make_scenario(name, seed, 0);
    auto* provider = dynamic_cast<analysis::ProtocolSpecProvider*>(sc.algo.get());
    analysis::ProtocolSpec spec = provider->protocol_spec();
    analysis::ProtocolSpec lifted =
        apply_term(Term::with_authentication(mpc::kMessageTagBits), spec).spec;
    lifted.protocol = spec.protocol + "+auth";
    cat.specs.add(name, spec);
    cat.specs.add(name + "+auth", lifted);
  }

  // ---- extra (s, m) points of the RAM-emulation family.
  const RamPoint ram8m4 = make_ram_point(8, 4, seed);   // == the scenario point
  const RamPoint ram8m8 = make_ram_point(8, 8, seed);   // same program, 7 servers
  const RamPoint ram16m4 = make_ram_point(16, 4, seed);  // 2x the program
  cat.specs.add("ram-emulation/m8", ram8m8.strat->protocol_spec());
  {
    analysis::ProtocolSpec n16 = ram16m4.strat->protocol_spec();
    n16.protocol += "/n16";
    cat.specs.add("ram-emulation/n16", n16);
  }

  // ---- the single-instance pointer chaser at the batch scenario's params,
  // so the direct-sum transfer below compares like with like.
  const core::LineParams cmt_params = core::LineParams::make(64, 16, 8, 128);
  strategies::PointerChasingStrategy cmt_chase(
      cmt_params, strategies::OwnershipPlan::round_robin(cmt_params, 4));
  cat.specs.add("pointer-chasing/cmt", cmt_chase.protocol_spec());

  // ---- the authenticated lift, priced against theory::bounds.
  //
  // The tag bits raise s (every inbox holds MAC'd deliveries), which raises
  // the Lemma 3.6 advance cap h = s/denominator + 1 — the adversary's
  // storage really does buy more guessing room — but the Lemma 3.2 round
  // floor w/log^2(w) is tag-independent: authentication spends budget, it
  // never buys rounds. The floor is pinned on the line-family entries.
  for (const std::string& name : serve::strategy_names()) {
    CatalogEntry e;
    e.reduction = make_reduction("auth/" + name, name, name + "+auth",
                                 Term::with_authentication(mpc::kMessageTagBits));
    e.run_target = scenario_runner(name, seed, true);
    const analysis::ProtocolSpec& plain = cat.specs.at(name);
    const analysis::ProtocolSpec& lifted = cat.specs.at(name + "+auth");
    std::ostringstream why;
    why << "MAC lift prices " << mpc::kMessageTagBits << " tag bits per message: worst memory "
        << plain.steady.memory_bits << " -> " << lifted.steady.memory_bits << " bits";
    if (name == "pointer-chasing") {
      // The paper's protagonist gets the full theory pricing.
      const core::LineParams p = core::LineParams::make(64, 16, 8, 96);
      theory::MpcBoundParams mp;
      mp.m = plain.machines;
      mp.q = 1 << 20;
      mp.s = plain.steady.memory_bits;
      const long double h_plain = theory::lemma36_h(p, mp);
      mp.s = lifted.steady.memory_bits;
      const long double h_auth = theory::lemma36_h(p, mp);
      const long double floor = theory::lemma32_round_lower_bound(p);
      e.floor_rounds = static_cast<std::uint64_t>(std::ceil(static_cast<double>(floor)));
      why << "; Lemma 3.6 advance cap h " << static_cast<double>(h_plain) << " -> "
          << static_cast<double>(h_auth) << "; Lemma 3.2 floor ceil(w/log^2 w) = "
          << e.floor_rounds << " rounds survives the lift";
    }
    e.rationale = why.str();
    cat.entries.push_back(std::move(e));
  }

  // ---- RAM emulation across (s, m) points (Theorem 4's construction is a
  // family; these pin how its envelope moves through it).
  {
    CatalogEntry e;
    e.reduction = make_reduction("ram/regroup-m8-to-m4", "ram-emulation/m8", "ram-emulation",
                                 Term::machine_regroup(2));
    e.rationale =
        "hosting two of 8 emulation machines per physical machine: per-machine resources "
        "at most double, rounds and message sizes unchanged — the m-axis of the (s, m) "
        "trade-off";
    e.run_target = scenario_runner("ram-emulation", seed, false);
    cat.entries.push_back(std::move(e));
  }
  {
    CatalogEntry e;
    e.reduction = make_reduction(
        "ram/space-scale-n8-to-n16", "ram-emulation", "ram-emulation/n16",
        Term::compose({Term::space_scale(2), Term::round_stretch(2)}));
    e.rationale =
        "emulating a 2x-larger program on the same machines: shards, traffic and message "
        "sizes at most double (space_scale), and the sum program's proven step bound grows "
        "at most linearly, so 2x the rounds suffice (round_stretch) — the s-axis of the "
        "trade-off";
    e.run_target = [ram16m4](mpc::MpcConfig* config) {
      *config = ram_config(ram16m4, 4);
      mpc::MpcSimulation sim(*config, nullptr);
      return sim.run(*ram16m4.strat, ram16m4.strat->make_initial_memory(ram16m4.memory));
    };
    cat.entries.push_back(std::move(e));
  }
  {
    CatalogEntry e;
    e.reduction = make_reduction(
        "ram/secure-regroup", "ram-emulation/m8", "ram-emulation+auth",
        Term::compose({Term::machine_regroup(2), Term::with_authentication(mpc::kMessageTagBits)}));
    e.rationale =
        "compose in action: regroup 8 emulation machines onto 4, then MAC every message — "
        "the authenticated 4-machine emulator inherits the 8-machine envelope through both "
        "transfer functions";
    e.run_target = scenario_runner("ram-emulation", seed, true);
    cat.entries.push_back(std::move(e));
  }

  // ---- Charikar–Ma–Tan-style query-budget transfer (direct sum): solving
  // k = 4 pointer-chasing instances costs at most k× the oracle queries
  // (oracle_reindex) inside a constant-factor space/traffic envelope
  // (space_scale: the batch protocol carries per-instance framing, done
  // flags and a collection record on top of the k chains, so the constant
  // is 12, not 4), finishing within k+1 target rounds per source round
  // (round_stretch: k interleaved chains plus the collection epilogue).
  {
    CatalogEntry e;
    e.reduction = make_reduction(
        "cmt/direct-sum-k4", "pointer-chasing/cmt", "batch-pointer-chasing",
        Term::compose({Term::space_scale(12), Term::oracle_reindex(4), Term::round_stretch(5)}));
    e.rationale =
        "query-complexity transfer: the 4-instance batch chaser fits in 4x the queries and "
        "12x the space/traffic of one chaser — the direct-sum shape Charikar–Ma–Tan use to "
        "push query lower bounds into MPC round bounds";
    e.run_target = scenario_runner("batch-pointer-chasing", seed, false);
    cat.entries.push_back(std::move(e));
  }

  // ---- the self-check matrix: claims the checker must refute, each with a
  // distinct leading diagnostic.
  cat.broken.push_back({make_reduction("broken/round-undercount", "ram-emulation/m8",
                                       "ram-emulation",
                                       Term::compose({Term::machine_regroup(2),
                                                      Term::round_compress(4)})),
                        analysis::ViolationKind::kRoundCount,
                        "claims 4x round compression the 4-machine emulator does not achieve: "
                        "its declared round count exceeds ceil(R/4)"});
  cat.broken.push_back({make_reduction("broken/budget-overshoot", "pointer-chasing/cmt",
                                       "batch-pointer-chasing",
                                       Term::compose({Term::space_scale(12), Term::oracle_reindex(2),
                                                      Term::round_stretch(5)})),
                        analysis::ViolationKind::kQueryBudget,
                        "prices the 4-instance batch at 2x the queries; the target declares 4x"});
  cat.broken.push_back({make_reduction("broken/machine-mismatch", "ram-emulation/m8",
                                       "ram-emulation", Term::machine_regroup(4)),
                        analysis::ViolationKind::kRouting,
                        "regrouping 8 machines by 4 leaves 2; the target addresses 4"});
  cat.broken.push_back({make_reduction("broken/unpriced-auth", "pointer-chasing",
                                       "pointer-chasing+auth", Term::identity()),
                        analysis::ViolationKind::kMemory,
                        "claims authentication is free; the MAC'd envelope pays tag bits in "
                        "memory and traffic"});

  return cat;
}

}  // namespace mpch::reduce
