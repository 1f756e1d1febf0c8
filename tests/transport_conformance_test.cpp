// transport_conformance_test.cpp — the cross-backend conformance matrix.
//
// MpcConfig::transport promises that how bytes move is invisible to the
// model: every backend must produce bit-identical results. This suite is the
// headline correctness artifact of the transport layer — each scenario
// builds a fresh (oracle, input, strategy) triple per seed, runs it once on
// the serial in-process reference, then across every backend × thread-count
// cell of the matrix (in-process, socket × threads {1, 2, 8}, socket with
// 2/3/4 router processes to cover even, odd, and power-of-two binomial
// dissemination), and compares the *entire* observable result:
// output bits, rounds_used, every RoundStats field including the per-round
// peak stats, every trace annotation, the canonically-sorted oracle
// transcript, the touched table, and exact query counts. Authenticated runs
// and the chaos/recovery harness (checkpoint restart, Byzantine quarantine)
// ride the same matrix: RO-MAC tags cross a real wire on the socket backend
// and quarantine must still converge to the fault-free execution.
#include "transport/transport.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/line.hpp"
#include "fault/fault_plan.hpp"
#include "fault/recovery.hpp"
#include "hash/random_oracle.hpp"
#include "mpc/simulation.hpp"
#include "mpclib/primitives.hpp"
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
#include "transport/socket.hpp"
#include "util/rng.hpp"

namespace mpch {
namespace {

using util::BitString;
using transport::TransportKind;

constexpr std::uint64_t kSeeds[] = {11, 22, 33};

/// CI escape hatch: the socket backend fork()s router processes, which the
/// thread sanitizer does not support. Setting MPCH_SKIP_SOCKET_TRANSPORT=1
/// drops the socket cells from the matrix (and GTEST_SKIPs the socket-only
/// tests) so the rest of the suite still runs under TSan.
bool skip_socket_backend() {
  const char* v = std::getenv("MPCH_SKIP_SOCKET_TRANSPORT");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

/// One cell of the conformance matrix.
struct Backend {
  TransportKind kind = TransportKind::kInProcess;
  std::uint64_t threads = 0;
  std::uint64_t processes = 0;  ///< socket: router process count (0 = auto)

  std::string label() const {
    return transport::to_string(kind) + " threads=" + std::to_string(threads) +
           (processes != 0 ? " procs=" + std::to_string(processes) : "");
  }
};

/// The serial zero-copy reference every other cell is measured against.
constexpr Backend kReference{TransportKind::kInProcess, 0, 0};

const Backend kMatrix[] = {
    {TransportKind::kInProcess, 1, 0}, {TransportKind::kInProcess, 2, 0},
    {TransportKind::kInProcess, 8, 0}, {TransportKind::kSocket, 1, 2},
    {TransportKind::kSocket, 2, 3},    {TransportKind::kSocket, 8, 4},
};

struct Artifacts {
  bool completed = false;
  std::uint64_t rounds_used = 0;
  BitString output;
  std::vector<mpc::RoundStats> rounds;
  std::map<std::string, std::vector<std::uint64_t>> annotations;
  std::vector<hash::QueryRecord> records;
  std::vector<std::pair<BitString, BitString>> touched;
  std::uint64_t oracle_total = 0;
  std::uint64_t extra = 0;  ///< strategy-specific counter (e.g. lucky_escapes)
};

Artifacts extract(const mpc::MpcRunResult& result, const hash::LazyRandomOracle* oracle) {
  Artifacts a;
  a.completed = result.completed;
  a.rounds_used = result.rounds_used;
  a.output = result.output;
  a.rounds = result.trace.rounds();
  a.annotations = result.trace.annotations();
  a.records = result.transcript->records();
  if (oracle != nullptr) {
    a.touched = oracle->touched_table();
    a.oracle_total = oracle->total_queries();
  }
  return a;
}

void expect_identical(const Artifacts& reference, const Artifacts& candidate) {
  EXPECT_EQ(reference.completed, candidate.completed);
  EXPECT_EQ(reference.rounds_used, candidate.rounds_used);
  EXPECT_EQ(reference.output, candidate.output);
  EXPECT_EQ(reference.extra, candidate.extra);
  // RoundStats::operator== covers every field, including all per-round peak
  // stats (fan-in/out, message/sent/recv bits, memory, queries) with their
  // argmax machine indices — a transport that merged in a different order
  // or dropped/duplicated a byte shows up here.
  EXPECT_EQ(reference.rounds, candidate.rounds);
  EXPECT_EQ(reference.annotations, candidate.annotations);
  EXPECT_EQ(reference.records, candidate.records);
  EXPECT_EQ(reference.oracle_total, candidate.oracle_total);
  EXPECT_EQ(reference.touched, candidate.touched);
}

using Scenario = std::function<Artifacts(std::uint64_t seed, const Backend& backend)>;

void run_conformance(const Scenario& scenario) {
  for (std::uint64_t seed : kSeeds) {
    Artifacts reference = scenario(seed, kReference);
    for (const Backend& backend : kMatrix) {
      if (backend.kind == TransportKind::kSocket && skip_socket_backend()) continue;
      SCOPED_TRACE("seed=" + std::to_string(seed) + " " + backend.label());
      expect_identical(reference, scenario(seed, backend));
    }
  }
}

mpc::MpcConfig cfg(std::uint64_t m, std::uint64_t s, std::uint64_t q, const Backend& backend,
                   std::uint64_t max_rounds = 20000) {
  mpc::MpcConfig c;
  c.machines = m;
  c.local_memory_bits = s;
  c.query_budget = q;
  c.max_rounds = max_rounds;
  c.tape_seed = 5;
  c.threads = backend.threads;
  c.transport = backend.kind;
  c.transport_processes = backend.processes;
  return c;
}

TEST(TransportConformance, PointerChasing) {
  run_conformance([](std::uint64_t seed, const Backend& backend) {
    core::LineParams p = core::LineParams::make(64, 16, 8, 96);
    auto oracle = std::make_shared<hash::LazyRandomOracle>(p.n, p.n, seed);
    util::Rng rng(seed + 1);
    core::LineInput input = core::LineInput::random(p, rng);
    strategies::PointerChasingStrategy strat(p, strategies::OwnershipPlan::round_robin(p, 4));
    mpc::MpcSimulation sim(cfg(4, strat.required_local_memory(), 1 << 20, backend), oracle);
    auto result = sim.run(strat, strat.make_initial_memory(input));
    EXPECT_TRUE(result.completed);
    return extract(result, oracle.get());
  });
}

TEST(TransportConformance, BatchPointerChasing) {
  run_conformance([](std::uint64_t seed, const Backend& backend) {
    core::LineParams p = core::LineParams::make(64, 16, 8, 128);
    auto oracle = std::make_shared<hash::LazyRandomOracle>(p.n, p.n, seed);
    const std::uint64_t k = 4, m = 4;
    std::vector<core::LineInput> inputs;
    for (std::uint64_t i = 0; i < k; ++i) {
      util::Rng rng(seed * 100 + i);
      inputs.push_back(core::LineInput::random(p, rng));
    }
    strategies::BatchPointerChasingStrategy strat(p, strategies::OwnershipPlan::round_robin(p, m),
                                                  k);
    mpc::MpcSimulation sim(cfg(m, strat.required_local_memory(), 1 << 20, backend), oracle);
    auto result = sim.run(strat, strat.make_initial_memory(inputs));
    EXPECT_TRUE(result.completed);
    return extract(result, oracle.get());
  });
}

TEST(TransportConformance, SpeculativeEnumeration) {
  run_conformance([](std::uint64_t seed, const Backend& backend) {
    core::LineParams p = core::LineParams::make(3 * 4 + 16, 4, 8, 64);
    auto oracle = std::make_shared<hash::LazyRandomOracle>(p.n, p.n, seed);
    util::Rng rng(seed * 3 + 7);
    core::LineInput input = core::LineInput::random(p, rng);
    strategies::SpeculativeStrategy strat(p, strategies::OwnershipPlan::round_robin(p, 4),
                                          {16, true}, input);
    mpc::MpcSimulation sim(cfg(4, strat.required_local_memory(), 1 << 20, backend), oracle);
    auto result = sim.run(strat, strat.make_initial_memory(input));
    EXPECT_TRUE(result.completed);
    Artifacts a = extract(result, oracle.get());
    a.extra = strat.lucky_escapes();
    return a;
  });
}

TEST(TransportConformance, PipelinedSimLine) {
  run_conformance([](std::uint64_t seed, const Backend& backend) {
    core::LineParams p = core::LineParams::make(64, 16, 16, 256);
    auto oracle = std::make_shared<hash::LazyRandomOracle>(p.n, p.n, seed);
    util::Rng rng(seed + 2);
    core::LineInput input = core::LineInput::random(p, rng);
    strategies::PipelinedSimLineStrategy strat(p, strategies::OwnershipPlan::windows(p, 4, 4));
    mpc::MpcSimulation sim(cfg(4, strat.required_local_memory(), 1 << 20, backend), oracle);
    auto result = sim.run(strat, strat.make_initial_memory(input));
    EXPECT_TRUE(result.completed);
    return extract(result, oracle.get());
  });
}

TEST(TransportConformance, ColludingBroadcast) {
  run_conformance([](std::uint64_t seed, const Backend& backend) {
    core::LineParams p = core::LineParams::make(64, 16, 8, 96);
    auto oracle = std::make_shared<hash::LazyRandomOracle>(p.n, p.n, seed);
    util::Rng rng(seed + 3);
    core::LineInput input = core::LineInput::random(p, rng);
    strategies::ColludingStrategy strat(p, strategies::OwnershipPlan::round_robin(p, 4));
    mpc::MpcSimulation sim(cfg(4, strat.required_local_memory(), 1 << 20, backend), oracle);
    auto result = sim.run(strat, strat.make_initial_memory(input));
    EXPECT_TRUE(result.completed);
    return extract(result, oracle.get());
  });
}

TEST(TransportConformance, Dictionary) {
  run_conformance([](std::uint64_t seed, const Backend& backend) {
    core::LineParams p = core::LineParams::make(64, 16, 32, 128);
    auto oracle = std::make_shared<hash::LazyRandomOracle>(p.n, p.n, seed);
    util::Rng rng(seed + 4);
    core::LineInput input = strategies::make_low_entropy_input(p, 2, rng);
    strategies::DictionaryStrategy strat(p, 4);
    mpc::MpcSimulation sim(cfg(4, strat.gathered_bits(2), p.w + 1, backend, 10), oracle);
    auto result = sim.run(strat, strat.make_initial_memory(input));
    EXPECT_TRUE(result.completed);
    return extract(result, oracle.get());
  });
}

TEST(TransportConformance, FullMemory) {
  run_conformance([](std::uint64_t seed, const Backend& backend) {
    core::LineParams p = core::LineParams::make(64, 16, 8, 256);
    auto oracle = std::make_shared<hash::LazyRandomOracle>(p.n, p.n, seed);
    util::Rng rng(seed + 5);
    core::LineInput input = core::LineInput::random(p, rng);
    strategies::FullMemoryStrategy strat(p, strategies::OwnershipPlan::round_robin(p, 4));
    mpc::MpcSimulation sim(cfg(4, strat.required_local_memory(), p.w + 1, backend, 10), oracle);
    auto result = sim.run(strat, strat.make_initial_memory(input));
    EXPECT_TRUE(result.completed);
    return extract(result, oracle.get());
  });
}

TEST(TransportConformance, RamEmulation) {
  run_conformance([](std::uint64_t seed, const Backend& backend) {
    const std::uint64_t n = 8;
    std::vector<std::uint64_t> memory(n);
    for (std::uint64_t i = 0; i < n; ++i) memory[i] = (seed * 7 + i * 3) % 97;
    std::vector<ram::Instruction> prog = ram::programs::sum(n);
    strategies::RamEmulationStrategy strat(prog, 4, 1);
    mpc::MpcConfig c = cfg(4, strat.required_local_memory(memory.size()), 1, backend, 1 << 20);
    mpc::MpcSimulation sim(c, nullptr);
    auto result = sim.run(strat, strat.make_initial_memory(memory));
    EXPECT_TRUE(result.completed);
    return extract(result, nullptr);
  });
}

TEST(TransportConformance, MpclibBroadcastCoalesces) {
  // BroadcastAlgorithm fans one identical payload out to many machines per
  // round — on the socket backend this is the broadcast-coalescing path: the
  // parent ships one kBroadcast frame and the routers replicate it along the
  // binomial tree. m = 16 over 3 and 4 router processes exercises both an
  // odd group count (dedup of dissemination duplicates) and a power of two.
  run_conformance([](std::uint64_t seed, const Backend& backend) {
    const std::uint64_t m = 16;
    mpclib::BroadcastAlgorithm algo(m, 2);
    mpc::MpcConfig c = cfg(m, 1 << 16, 1, backend, 200);
    c.tape_seed = seed;
    mpc::MpcSimulation sim(c, nullptr);
    auto result = sim.run(algo, {BitString::from_uint(0xBEEF ^ seed, 16)});
    EXPECT_TRUE(result.completed);
    return extract(result, nullptr);
  });
}

TEST(TransportConformance, AuthenticatedMessagingOverEveryBackend) {
  // RO-MAC tags ride inside the payloads; on the socket backend they cross a
  // real process boundary and must still verify at every barrier.
  run_conformance([](std::uint64_t seed, const Backend& backend) {
    core::LineParams p = core::LineParams::make(64, 16, 8, 96);
    auto oracle = std::make_shared<hash::LazyRandomOracle>(p.n, p.n, seed);
    util::Rng rng(seed + 1);
    core::LineInput input = core::LineInput::random(p, rng);
    strategies::PointerChasingStrategy strat(p, strategies::OwnershipPlan::round_robin(p, 4));
    mpc::MpcConfig c = cfg(4, strat.required_local_memory() + (1 << 16), 1 << 20, backend);
    c.authenticate_messages = true;
    mpc::MpcSimulation sim(c, oracle);
    auto result = sim.run(strat, strat.make_initial_memory(input));
    EXPECT_TRUE(result.completed);
    return extract(result, oracle.get());
  });
}

// ---- chaos/recovery over the wire backends ----

struct ChaosScenario {
  mpc::MpcConfig config;
  std::shared_ptr<strategies::PointerChasingStrategy> strat;
  std::vector<BitString> initial;
  fault::ChaosHarness::OracleFactory oracle_factory;
};

ChaosScenario make_chaos_scenario(const Backend& backend, bool authenticate) {
  constexpr std::uint64_t kSeed = 11;
  ChaosScenario s;
  core::LineParams p = core::LineParams::make(64, 16, 8, 96);
  util::Rng rng(kSeed + 1);
  core::LineInput input = core::LineInput::random(p, rng);
  s.strat = std::make_shared<strategies::PointerChasingStrategy>(
      p, strategies::OwnershipPlan::round_robin(p, 4));
  s.config = cfg(4, s.strat->required_local_memory(), 1 << 20, backend);
  s.initial = s.strat->make_initial_memory(input);
  s.oracle_factory = [n = p.n, seed = kSeed] {
    return std::make_shared<hash::LazyRandomOracle>(n, n, seed);
  };
  if (authenticate) {
    s.config.authenticate_messages = true;
    s.config.local_memory_bits += 1 << 16;
  }
  return s;
}

Artifacts run_chaos_clean(bool authenticate) {
  ChaosScenario s = make_chaos_scenario(kReference, authenticate);
  auto oracle = s.oracle_factory();
  mpc::MpcSimulation sim(s.config, oracle);
  auto result = sim.run(*s.strat, s.initial);
  EXPECT_TRUE(result.completed);
  return extract(result, oracle.get());
}

TEST(TransportConformance, RestartFromCheckpointOverEveryBackend) {
  // Checkpoint/resume across the wire backends: a kill at round 3 restores
  // the round-2 snapshot and resumes — bit-identical to the fault-free
  // serial reference. Transports are quiescent at every barrier, so the
  // snapshot needs no wire state and the checkpoint format is unchanged.
  Artifacts clean = run_chaos_clean(false);
  for (const Backend& backend : {Backend{TransportKind::kInProcess, 1, 0},
                                 Backend{TransportKind::kInProcess, 2, 0},
                                 Backend{TransportKind::kSocket, 1, 2}}) {
    if (backend.kind == TransportKind::kSocket && skip_socket_backend()) continue;
    SCOPED_TRACE(backend.label());
    ChaosScenario s = make_chaos_scenario(backend, false);
    fault::ChaosHarness harness(s.config, s.oracle_factory);
    fault::ChaosResult chaos = harness.run_restart(*s.strat, s.initial,
                                                   fault::FaultPlan::parse("kill:round=3"),
                                                   /*checkpoint_every=*/2);
    EXPECT_EQ(chaos.cost.faults_injected, 1u);
    EXPECT_GE(chaos.cost.recoveries, 1u);
    expect_identical(clean, extract(chaos.run, chaos.oracle.get()));
  }
}

TEST(TransportConformance, QuarantineRecoversOverSocketBackend) {
  // The acceptance-criteria case: an authenticated Byzantine flip while the
  // whole execution — including every quarantine replica and retry — runs
  // over forked router processes. Detection must be the typed TamperViolation
  // path and the recovered run must equal the fault-free serial reference.
  if (skip_socket_backend()) GTEST_SKIP() << "MPCH_SKIP_SOCKET_TRANSPORT set";
  Artifacts clean = run_chaos_clean(true);
  ChaosScenario s = make_chaos_scenario(Backend{TransportKind::kSocket, 1, 2}, true);
  fault::ChaosHarness harness(s.config, s.oracle_factory);
  fault::ChaosResult chaos = harness.run_quarantine(
      *s.strat, s.initial, fault::FaultPlan::parse("flip:machine=1,round=3,bit=2"));
  EXPECT_EQ(chaos.cost.faults_injected, 1u);
  EXPECT_GE(chaos.cost.quarantine_strikes, 1u);
  expect_identical(clean, extract(chaos.run, chaos.oracle.get()));
}

TEST(TransportConformance, QuarantineRecoversUnderParallelRounds) {
  // Quarantine replicas and retries with the round loop on eight threads —
  // the case the ThreadSanitizer job runs for this suite.
  Artifacts clean = run_chaos_clean(false);
  ChaosScenario s = make_chaos_scenario(Backend{TransportKind::kInProcess, 8, 0}, false);
  fault::ChaosHarness harness(s.config, s.oracle_factory);
  fault::ChaosResult chaos = harness.run_quarantine(
      *s.strat, s.initial, fault::FaultPlan::parse("flip:machine=1,round=3,bit=2"));
  EXPECT_GE(chaos.cost.recoveries, 1u);
  expect_identical(clean, extract(chaos.run, chaos.oracle.get()));
}

// ---- transport selection plumbing ----

TEST(TransportConformance, KindParsingRoundTripsAndRejectsUnknown) {
  EXPECT_EQ(transport::parse_transport_kind("in-process"), TransportKind::kInProcess);
  EXPECT_EQ(transport::parse_transport_kind("inprocess"), TransportKind::kInProcess);
  EXPECT_EQ(transport::parse_transport_kind("socket"), TransportKind::kSocket);
  for (TransportKind kind : {TransportKind::kInProcess, TransportKind::kSocket}) {
    EXPECT_EQ(transport::parse_transport_kind(transport::to_string(kind)), kind);
  }
  EXPECT_THROW(transport::parse_transport_kind("carrier-pigeon"), std::invalid_argument);
  EXPECT_THROW(transport::parse_transport_kind("shared-memory"), std::invalid_argument);
}

TEST(TransportConformance, SocketRouterCountClampsToMachines) {
  if (skip_socket_backend()) GTEST_SKIP() << "MPCH_SKIP_SOCKET_TRANSPORT set";
  {
    transport::TransportOptions options;
    options.processes = 64;
    transport::SocketTransport t(options);
    t.start(4);
    EXPECT_EQ(t.router_count(), 4u);
  }
  {
    transport::TransportOptions options;
    options.processes = 3;
    transport::SocketTransport t(options);
    t.start(8);
    EXPECT_EQ(t.router_count(), 3u);
  }
  {
    transport::SocketTransport t;  // auto: 2 router processes for m > 1
    t.start(6);
    EXPECT_EQ(t.router_count(), 2u);
  }
}

}  // namespace
}  // namespace mpch
