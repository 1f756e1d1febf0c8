#include "serve/scenario.hpp"

#include <algorithm>
#include <stdexcept>

#include "mpc/auth.hpp"
#include "ram/machine.hpp"
#include "ram/programs.hpp"
#include "strategies/batch_pointer_chasing.hpp"
#include "strategies/colluding.hpp"
#include "strategies/dictionary.hpp"
#include "strategies/full_memory.hpp"
#include "strategies/pipelined_simline.hpp"
#include "strategies/pointer_chasing.hpp"
#include "strategies/ram_emulation.hpp"
#include "strategies/speculative.hpp"
#include "util/rng.hpp"
#include "verify/abstract_interpreter.hpp"

namespace mpch::serve {

namespace {

mpc::MpcConfig base_config(std::uint64_t m, std::uint64_t s, std::uint64_t q,
                           std::uint64_t threads, std::uint64_t max_rounds = 20000) {
  mpc::MpcConfig c;
  c.machines = m;
  c.local_memory_bits = s;
  c.query_budget = q;
  c.max_rounds = max_rounds;
  c.tape_seed = 5;
  c.threads = threads;
  return c;
}

/// Index of the first element where `a` and `b` differ, as text; called only
/// once the whole vectors are known to differ.
template <typename T>
std::string first_difference(const std::vector<T>& a, const std::vector<T>& b) {
  return std::to_string(std::mismatch(a.begin(), a.end(), b.begin(), b.end()).first - a.begin());
}

}  // namespace

std::shared_ptr<hash::LazyRandomOracle> Scenario::make_oracle(
    std::shared_ptr<hash::SharedOracleMemo> memo) const {
  if (!family.present()) return nullptr;
  auto oracle =
      std::make_shared<hash::LazyRandomOracle>(family.in_bits, family.out_bits, family.seed);
  if (memo != nullptr) oracle->attach_shared_memo(std::move(memo));
  return oracle;
}

const std::vector<std::string>& strategy_names() {
  static const std::vector<std::string> kNames = {
      "pointer-chasing", "batch-pointer-chasing", "speculative", "pipelined-simline",
      "colluding",       "dictionary",            "full-memory", "ram-emulation",
  };
  return kNames;
}

Scenario make_scenario(const std::string& name, std::uint64_t seed, std::uint64_t threads) {
  Scenario s;
  auto oracle_family = [seed](std::uint64_t n) { return OracleFamily{n, n, seed}; };

  if (name == "pointer-chasing") {
    core::LineParams p = core::LineParams::make(64, 16, 8, 96);
    util::Rng rng(seed + 1);
    core::LineInput input = core::LineInput::random(p, rng);
    auto strat = std::make_shared<strategies::PointerChasingStrategy>(
        p, strategies::OwnershipPlan::round_robin(p, 4));
    s.config = base_config(4, strat->required_local_memory(), 1 << 20, threads);
    s.initial = strat->make_initial_memory(input);
    s.algo = strat;
    s.family = oracle_family(p.n);
  } else if (name == "batch-pointer-chasing") {
    core::LineParams p = core::LineParams::make(64, 16, 8, 128);
    std::vector<core::LineInput> inputs;
    for (std::uint64_t i = 0; i < 4; ++i) {
      util::Rng rng(seed * 100 + i);
      inputs.push_back(core::LineInput::random(p, rng));
    }
    auto strat = std::make_shared<strategies::BatchPointerChasingStrategy>(
        p, strategies::OwnershipPlan::round_robin(p, 4), 4);
    s.config = base_config(4, strat->required_local_memory(), 1 << 20, threads);
    s.initial = strat->make_initial_memory(inputs);
    s.algo = strat;
    s.family = oracle_family(p.n);
  } else if (name == "speculative") {
    // u = 16 with a small guess budget: stalls essentially never escape, so
    // the run lasts long enough for mid-flight faults to land.
    core::LineParams p = core::LineParams::make(64, 16, 8, 96);
    util::Rng rng(seed * 3 + 7);
    auto input = std::make_shared<core::LineInput>(core::LineInput::random(p, rng));
    s.truth = input;
    auto strat = std::make_shared<strategies::SpeculativeStrategy>(
        p, strategies::OwnershipPlan::round_robin(p, 4), strategies::SpeculativeConfig{4, true},
        *input);
    s.config = base_config(4, strat->required_local_memory(), 1 << 20, threads);
    s.initial = strat->make_initial_memory(*input);
    s.algo = strat;
    s.family = oracle_family(p.n);
  } else if (name == "pipelined-simline") {
    core::LineParams p = core::LineParams::make(64, 16, 16, 256);
    util::Rng rng(seed + 2);
    core::LineInput input = core::LineInput::random(p, rng);
    auto strat = std::make_shared<strategies::PipelinedSimLineStrategy>(
        p, strategies::OwnershipPlan::windows(p, 4, 4));
    s.config = base_config(4, strat->required_local_memory(), 1 << 20, threads);
    s.initial = strat->make_initial_memory(input);
    s.algo = strat;
    s.family = oracle_family(p.n);
  } else if (name == "colluding") {
    core::LineParams p = core::LineParams::make(64, 16, 8, 96);
    util::Rng rng(seed + 3);
    core::LineInput input = core::LineInput::random(p, rng);
    auto strat = std::make_shared<strategies::ColludingStrategy>(
        p, strategies::OwnershipPlan::round_robin(p, 4));
    s.config = base_config(4, strat->required_local_memory(), 1 << 20, threads);
    s.initial = strat->make_initial_memory(input);
    s.algo = strat;
    s.family = oracle_family(p.n);
  } else if (name == "dictionary") {
    core::LineParams p = core::LineParams::make(64, 16, 32, 128);
    util::Rng rng(seed + 4);
    core::LineInput input = strategies::make_low_entropy_input(p, 2, rng);
    auto strat = std::make_shared<strategies::DictionaryStrategy>(p, 4);
    s.config = base_config(4, strat->gathered_bits(2), p.w + 1, threads, 10);
    s.initial = strat->make_initial_memory(input);
    s.algo = strat;
    s.family = oracle_family(p.n);
  } else if (name == "full-memory") {
    core::LineParams p = core::LineParams::make(64, 16, 8, 256);
    util::Rng rng(seed + 5);
    core::LineInput input = core::LineInput::random(p, rng);
    auto strat = std::make_shared<strategies::FullMemoryStrategy>(
        p, strategies::OwnershipPlan::round_robin(p, 4));
    s.config = base_config(4, strat->required_local_memory(), p.w + 1, threads, 10);
    s.initial = strat->make_initial_memory(input);
    s.algo = strat;
    s.family = oracle_family(p.n);
  } else if (name == "ram-emulation") {
    const std::uint64_t n = 8;
    std::vector<std::uint64_t> memory(n);
    for (std::uint64_t i = 0; i < n; ++i) memory[i] = (seed * 7 + i * 3) % 97;
    std::vector<ram::Instruction> prog = ram::programs::sum(n);
    // Verifier-proven envelope hints so protocol_spec() (and hence serve's
    // budget admission) works; hints never change execution.
    const verify::ProgramFacts facts =
        verify::analyze_program(prog, verify::MemoryModel::from_words(memory));
    auto strat = std::make_shared<strategies::RamEmulationStrategy>(prog, 4, 1,
                                                                    facts.touched_words,
                                                                    facts.max_steps);
    s.config = base_config(4, strat->required_local_memory(memory.size()), 1, threads, 1 << 20);
    s.initial = strat->make_initial_memory(memory);
    s.algo = strat;
  } else {
    throw std::invalid_argument("unknown strategy '" + name + "' (try --list)");
  }
  return s;
}

void apply_run_options(Scenario* sc, transport::TransportKind transport,
                       std::uint64_t transport_processes, bool authenticate) {
  sc->config.transport = transport;
  sc->config.transport_processes = transport_processes;
  if (authenticate) {
    sc->config.authenticate_messages = true;
    sc->config.local_memory_bits += mpc::kTagMemoryHeadroomBits;
  }
}

std::vector<std::string> artifact_mismatches(const mpc::MpcRunResult& ref,
                                             const hash::LazyRandomOracle* ref_oracle,
                                             const mpc::MpcRunResult& got,
                                             const hash::LazyRandomOracle* got_oracle) {
  std::vector<std::string> bad;
  if (ref.completed != got.completed) bad.push_back("completed flag differs");
  if (ref.rounds_used != got.rounds_used) {
    bad.push_back("rounds_used: " + std::to_string(ref.rounds_used) + " vs " +
                  std::to_string(got.rounds_used));
  }
  if (ref.output != got.output) bad.push_back("output bits differ");
  if (ref.trace.rounds() != got.trace.rounds()) {
    bad.push_back("per-round stats differ from round index " +
                  first_difference(ref.trace.rounds(), got.trace.rounds()));
  }
  if (ref.trace.annotations() != got.trace.annotations()) bad.push_back("annotations differ");
  const auto& ref_records = ref.transcript->records();
  const auto& got_records = got.transcript->records();
  if (ref_records != got_records) {
    bad.push_back("oracle transcript differs at record " +
                  first_difference(ref_records, got_records) + " (" +
                  std::to_string(ref_records.size()) + " vs " +
                  std::to_string(got_records.size()) + " records)");
  }
  if ((ref_oracle == nullptr) != (got_oracle == nullptr)) {
    bad.push_back("oracle presence differs");
  } else if (ref_oracle != nullptr) {
    if (ref_oracle->total_queries() != got_oracle->total_queries()) {
      bad.push_back("oracle query count: " + std::to_string(ref_oracle->total_queries()) + " vs " +
                    std::to_string(got_oracle->total_queries()));
    }
    if (ref_oracle->touched_table() != got_oracle->touched_table()) {
      bad.push_back("materialised oracle table differs");
    }
  }
  return bad;
}

}  // namespace mpch::serve
