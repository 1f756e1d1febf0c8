// transport_conformance_test.cpp — the determinism matrix.
//
// Definitions 2.1/2.2 make a round a pure function of its inboxes, the
// shared tape and the oracle, so how a round is executed must be invisible.
// Every strategy of the catalog (serve::strategy_names(), built by
// serve::make_scenario) runs at seeds {11, 22, 33}, plain and MAC-tagged, on
// the serial in-process reference and then in every cell of the matrix:
// in-process at threads {1, 2, 8}, and socket at threads 1/2/8 with 2/3/4
// router processes (an odd group count among them). Each
// cell must equal its reference on everything serve::artifact_mismatches
// compares: output bits, rounds_used, every RoundStats field, every
// annotation, the canonical oracle transcript, the touched table and exact
// query counts. The violation leg sets s (and q, for oracle strategies) one
// below the seed-11 reference's peak, and every cell must then throw the
// same exception with the same message. Three hand-built cases cover what the
// catalog does not (exhaustive speculative guessing, an m = 16 one-to-many
// fan-out, the canonical delivery order), and the chaos legs require
// checkpoint restart and quarantine recovery on the threaded and socket
// backends to reproduce the fault-free reference.
#include "transport/transport.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>
#include <typeinfo>

#include "analysis/protocol_spec.hpp"
#include "core/line.hpp"
#include "fault/recovery.hpp"
#include "hash/random_oracle.hpp"
#include "mpc/simulation.hpp"
#include "mpclib/primitives.hpp"
#include "scenario_runs.hpp"
#include "serve/scenario.hpp"
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

/// One cell of the matrix.
struct Backend {
  TransportKind kind = TransportKind::kInProcess;
  std::uint64_t threads = 0;
  std::uint64_t processes = 0;  ///< socket: router process count (0 = auto)

  bool skipped() const { return kind == TransportKind::kSocket && skip_socket_backend(); }
  std::string label() const {
    return transport::to_string(kind) + " threads=" + std::to_string(threads) +
           (processes != 0 ? " procs=" + std::to_string(processes) : "");
  }
  /// `c` as this cell runs it.
  mpc::MpcConfig on(mpc::MpcConfig c) const {
    c.threads = threads;
    c.transport = kind;
    c.transport_processes = processes;
    return c;
  }
};

/// The serial zero-copy reference every other cell is measured against.
constexpr Backend kReference{TransportKind::kInProcess, 0, 0};

const Backend kMatrix[] = {
    {TransportKind::kInProcess, 1, 0}, {TransportKind::kInProcess, 2, 0},
    {TransportKind::kInProcess, 8, 0}, {TransportKind::kSocket, 1, 2},
    {TransportKind::kSocket, 2, 3},    {TransportKind::kSocket, 8, 4},
};

/// Runs `build(seed, cell)` on the reference and then on every cell, at
/// every seed, and compares each cell's run with its seed's reference.
void run_matrix(const std::function<Execution(std::uint64_t seed, const Backend& cell)>& build) {
  for (std::uint64_t seed : kSeeds) {
    const Execution reference = build(seed, kReference);
    for (const Backend& cell : kMatrix) {
      if (cell.skipped()) continue;
      SCOPED_TRACE("seed=" + std::to_string(seed) + " " + cell.label());
      expect_identical(reference, build(seed, cell));
    }
  }
}

serve::Scenario catalog_cell(const std::string& name, std::uint64_t seed, const Backend& cell,
                             bool authenticate) {
  return catalog(name, seed, cell.threads, authenticate, cell.kind, cell.processes);
}

class DeterminismMatrix : public ::testing::TestWithParam<std::string> {};

TEST_P(DeterminismMatrix, EveryCellMatchesTheSerialReference) {
  for (bool authenticate : {false, true}) {
    SCOPED_TRACE(authenticate ? "MAC-tagged" : "plain");
    run_matrix([&](std::uint64_t seed, const Backend& cell) {
      Execution r = run_once(catalog_cell(GetParam(), seed, cell, authenticate));
      EXPECT_TRUE(r.run.completed);
      return r;
    });
  }
}

/// A run under a bound it may break: the execution, or the exception it
/// ended in as "<type>: <what()>".
struct Outcome {
  Execution execution;
  std::string violation;
};

Outcome attempt(const serve::Scenario& sc) {
  try {
    return {run_once(sc), ""};
  } catch (const std::exception& e) {
    return {{}, std::string(typeid(e).name()) + ": " + e.what()};
  }
}

TEST_P(DeterminismMatrix, TightenedBoundsEndIdenticallyInEveryCell) {
  // s one bit below the reference's largest delivery must throw
  // MemoryViolation, and q one below its busiest machine-round must throw
  // QueryBudgetExceeded — except in a strategy that clamps its queries to q
  // (ProtocolSpec::clamps_queries_to_budget), which finishes a longer,
  // budget-limited run instead. Every cell must end as the serial cell does:
  // the same exception with the same message, or the same artifacts. One
  // seed: the other two add run time, not failure paths.
  struct Bound {
    std::uint64_t mpc::MpcConfig::*field;
    std::uint64_t peak;
    const char* violation;  ///< "" when the run must complete
  };
  const std::uint64_t seed = kSeeds[0];
  const serve::Scenario sc = catalog(GetParam(), seed, 0);
  const bool clamps = dynamic_cast<const analysis::ProtocolSpecProvider&>(*sc.algo)
                          .protocol_spec()
                          .clamps_queries_to_budget;
  Bound s{&mpc::MpcConfig::local_memory_bits, 0, "MemoryViolation"};
  Bound q{&mpc::MpcConfig::query_budget, 0, clamps ? "" : "QueryBudgetExceeded"};
  const Execution reference = run_once(sc);
  for (const mpc::RoundStats& r : reference.run.trace.rounds()) {
    s.peak = std::max(s.peak, r.max_inbox_bits);
    q.peak = std::max(q.peak, r.peak_queries.value);
  }
  for (const Bound& bound : {s, q}) {
    if (bound.peak == 0) continue;  // plain model: no queries to budget
    const auto tightened = [&](const Backend& cell) {
      serve::Scenario cell_sc = catalog_cell(GetParam(), seed, cell, false);
      cell_sc.config.*bound.field = bound.peak - 1;
      return attempt(cell_sc);
    };
    const Outcome expected = tightened(kReference);
    SCOPED_TRACE(expected.violation);
    EXPECT_EQ(expected.violation.empty(), *bound.violation == '\0');
    EXPECT_NE(expected.violation.find(bound.violation), std::string::npos);
    for (const Backend& cell : kMatrix) {
      if (cell.skipped()) continue;
      SCOPED_TRACE(cell.label());
      const Outcome got = tightened(cell);
      EXPECT_EQ(got.violation, expected.violation);
      if (expected.violation.empty() && got.violation.empty()) {
        expect_identical(expected.execution, got.execution);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Catalog, DeterminismMatrix, ::testing::ValuesIn(serve::strategy_names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string id = info.param;
                           std::replace(id.begin(), id.end(), '-', '_');
                           return id;
                         });

TEST(TransportConformance, SpeculativeEnumeration) {
  // u = 4 with exhaustive enumeration (the catalog's speculative run has
  // u = 16): every stall escapes by guessing, so the run exercises the
  // tape-indexed guessing path, and lucky_escapes must agree in every cell.
  std::map<std::uint64_t, std::uint64_t> escapes;  // per seed, from the reference
  run_matrix([&](std::uint64_t seed, const Backend& cell) {
    core::LineParams p = core::LineParams::make(3 * 4 + 16, 4, 8, 64);
    util::Rng rng(seed * 3 + 7);
    core::LineInput input = core::LineInput::random(p, rng);
    strategies::SpeculativeStrategy strat(p, strategies::OwnershipPlan::round_robin(p, 4),
                                          {16, true}, input);
    Execution r;
    r.oracle = std::make_shared<hash::LazyRandomOracle>(p.n, p.n, seed);
    mpc::MpcSimulation sim(cell.on({.machines = 4,
                                    .local_memory_bits = strat.required_local_memory(),
                                    .query_budget = 1 << 20,
                                    .tape_seed = 5}),
                           r.oracle);
    r.run = sim.run(strat, strat.make_initial_memory(input));
    EXPECT_TRUE(r.run.completed);
    const auto it = escapes.emplace(seed, strat.lucky_escapes()).first;
    EXPECT_EQ(strat.lucky_escapes(), it->second);
    return r;
  });
}

TEST(TransportConformance, MpclibBroadcastMatchesReference) {
  // BroadcastAlgorithm fans one identical payload out to many machines per
  // round; on the socket backend each copy is its own data frame, routed
  // across 2, 3 and 4 router groups. In-process, chunks carry several
  // machines each.
  run_matrix([](std::uint64_t seed, const Backend& cell) {
    const std::uint64_t m = 16;
    mpclib::BroadcastAlgorithm algo(m, 2);
    mpc::MpcSimulation sim(
        cell.on({.machines = m, .local_memory_bits = 1 << 16, .query_budget = 1,
                 .max_rounds = 200, .tape_seed = seed}),
        nullptr);
    Execution r;
    r.run = sim.run(algo, {BitString::from_uint(0xBEEF ^ seed, 16)});
    EXPECT_TRUE(r.run.completed);
    return r;
  });
}

/// Every machine sends two numbered messages to every machine in rounds
/// 0-2 and annotates each delivery's number in its inbox order, so the
/// canonical (sender index, send order) delivery order is an artifact. The
/// catalog's strategies read their inboxes as sets: without this case a
/// backend that reordered deliveries would pass the matrix.
class InboxOrder final : public mpc::MpcAlgorithm {
 public:
  void run_machine(mpc::MachineIo& io, hash::CountingOracle*, const mpc::SharedTape&,
                   mpc::RoundTrace& trace) override {
    for (const mpc::Message& msg : *io.inbox) trace.annotate("delivered", msg.payload.get_uint(0, 8));
    if (io.round == 3) {
      if (io.machine == 0) io.output = BitString(1);
      return;
    }
    for (std::uint64_t to = 0; to < io.machines; ++to) {
      for (std::uint64_t n = 0; n < 2; ++n) io.send(to, BitString::from_uint(2 * io.machine + n, 8));
    }
  }
  std::string name() const override { return "inbox-order"; }
};

TEST(TransportConformance, DeliveryOrderIsCanonical) {
  run_matrix([](std::uint64_t seed, const Backend& cell) {
    InboxOrder algo;
    mpc::MpcSimulation sim(cell.on({.machines = 5, .local_memory_bits = 1 << 10, .tape_seed = seed}),
                           nullptr);
    Execution r;
    r.run = sim.run(algo, {});
    EXPECT_TRUE(r.run.completed);
    return r;
  });
}

// ---- chaos/recovery over the threaded and socket backends ----
//
// The catalog's pointer-chasing at seed 11, the scenario the fault suites use.

constexpr std::uint64_t kChaosSeed = 11;

fault::ChaosResult chaos_on(const Backend& cell, bool authenticate, const std::string& policy,
                            const std::string& plan, std::uint64_t every) {
  return run_chaos(catalog_cell("pointer-chasing", kChaosSeed, cell, authenticate), policy, plan,
                   every);
}

TEST(TransportConformance, RestartFromCheckpointOverEveryBackend) {
  // Checkpoint/resume across the wire backends: a kill at round 3 restores
  // the round-2 snapshot and resumes — bit-identical to the fault-free
  // serial reference. Transports are quiescent at every barrier, so the
  // snapshot needs no wire state and the checkpoint format is unchanged.
  const Execution clean = run_clean(catalog("pointer-chasing", kChaosSeed, 0));
  for (const Backend& cell : {Backend{TransportKind::kInProcess, 1, 0},
                              Backend{TransportKind::kInProcess, 2, 0},
                              Backend{TransportKind::kSocket, 1, 2}}) {
    if (cell.skipped()) continue;
    SCOPED_TRACE(cell.label());
    const fault::ChaosResult chaos = chaos_on(cell, false, "restart", "kill:round=3", 2);
    EXPECT_EQ(chaos.cost.faults_injected, 1u);
    EXPECT_GE(chaos.cost.recoveries, 1u);
    expect_identical(clean, chaos);
  }
}

TEST(TransportConformance, QuarantineRecoversOverSocketBackend) {
  // An authenticated Byzantine flip while the whole execution — including
  // every quarantine replica and retry — runs over forked router processes.
  // Detection must be the typed TamperViolation path and the recovered run
  // must equal the fault-free serial reference.
  if (skip_socket_backend()) GTEST_SKIP() << "MPCH_SKIP_SOCKET_TRANSPORT set";
  const fault::ChaosResult chaos = chaos_on({TransportKind::kSocket, 1, 2}, true, "quarantine",
                                            "flip:machine=1,round=3,bit=2", kQuarantineEvery);
  EXPECT_EQ(chaos.cost.faults_injected, 1u);
  EXPECT_GE(chaos.cost.quarantine_strikes, 1u);
  expect_identical(run_clean(catalog("pointer-chasing", kChaosSeed, 0, true)), chaos);
}

TEST(TransportConformance, QuarantineRecoversUnderParallelRounds) {
  // Quarantine replicas and retries with the round loop on eight threads —
  // the case the ThreadSanitizer job runs for this suite.
  const fault::ChaosResult chaos = chaos_on({TransportKind::kInProcess, 8, 0}, false, "quarantine",
                                            "flip:machine=1,round=3,bit=2", kQuarantineEvery);
  EXPECT_GE(chaos.cost.recoveries, 1u);
  expect_identical(run_clean(catalog("pointer-chasing", kChaosSeed, 0)), chaos);
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
