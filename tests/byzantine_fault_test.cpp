// byzantine_fault_test.cpp — Byzantine verbs and the quarantine policy.
//
// fault_recovery_test.cpp pins the fail-stop story: faults announce
// themselves and recovery replays checkpoints. This suite pins the Byzantine
// story: flip/forge/garble-oracle/tamper-ckpt apply *silently*, and the
// quarantine policy (ChaosHarness::run("quarantine", ...)) must detect them by
// cross-checking every round against a clean replica, localise the offender
// via attestation digests (or a typed TamperViolation when authenticated
// messaging is on), and still finish bit-identical to a fault-free run.
// Satellite coverage rides along: the ObserverChain throw-delivery contract,
// dup under ReplicateRound, and drop aimed at an empty inbox.
#include "fault/recovery.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/checkpoint.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "hash/random_oracle.hpp"
#include "mpc/auth.hpp"
#include "mpc/simulation.hpp"
#include "scenario_runs.hpp"
#include "serve/scenario.hpp"
#include "transport/socket.hpp"

namespace mpch {
namespace {

using util::BitString;

constexpr std::uint64_t kSeed = 11;
constexpr const char* kFlip = "flip:machine=1,round=3,bit=2";

bool log_contains(const std::vector<std::string>& log, const std::string& needle) {
  for (const auto& line : log) {
    if (line.find(needle) != std::string::npos) return true;
  }
  return false;
}

TEST(ByzantineFaultPlan, ParsesEveryVerbWithFullProvenance) {
  fault::FaultPlan plan = fault::FaultPlan::parse(
      "flip:machine=1,round=2,bit=5;forge:round=2,to=0,index=1,from=3;"
      "garble-oracle:round=3,entry=7;tamper-ckpt:round=4,bit=100");
  ASSERT_EQ(plan.events.size(), 4u);

  EXPECT_EQ(plan.events[0].kind, fault::FaultKind::FlipBit);
  EXPECT_EQ(plan.events[0].machine, 1u);
  EXPECT_EQ(plan.events[0].round, 2u);
  EXPECT_EQ(plan.events[0].index, 5u);

  EXPECT_EQ(plan.events[1].kind, fault::FaultKind::ForgeMessage);
  EXPECT_EQ(plan.events[1].machine, 0u);
  EXPECT_EQ(plan.events[1].index, 1u);
  EXPECT_EQ(plan.events[1].aux, 3u);  // the spoofed sender

  EXPECT_EQ(plan.events[2].kind, fault::FaultKind::GarbleOracle);
  EXPECT_EQ(plan.events[2].index, 7u);

  EXPECT_EQ(plan.events[3].kind, fault::FaultKind::TamperCheckpoint);
  EXPECT_EQ(plan.events[3].index, 100u);

  // describe() names each verb so fault logs read as provenance.
  for (const auto& ev : plan.events) EXPECT_FALSE(ev.describe().empty());
}

TEST(ByzantineFaultPlan, RejectsMalformedByzantineTokens) {
  EXPECT_THROW(fault::FaultPlan::parse("flip:round=1"), std::invalid_argument);  // missing bit
  EXPECT_THROW(fault::FaultPlan::parse("flip:machine=0,round=1,bits=2"), std::invalid_argument);
  EXPECT_THROW(fault::FaultPlan::parse("forge:round=1,to=0,index=0"), std::invalid_argument);
  EXPECT_THROW(fault::FaultPlan::parse("garble-oracle:round=1"), std::invalid_argument);
  EXPECT_THROW(fault::FaultPlan::parse("tamper-ckpt:bit=1"), std::invalid_argument);
}

TEST(Quarantine, RecoversEveryByzantineVerbBitIdentical) {
  const std::pair<const char*, const char*> kCases[] = {
      {"pointer-chasing", "flip:machine=1,round=3,bit=2"},
      {"pointer-chasing", "forge:round=3,to=1,index=0,from=99"},
      {"pointer-chasing", "garble-oracle:round=3,entry=0"},
      {"pointer-chasing", "tamper-ckpt:round=3,bit=100"},
      {"ram-emulation", "flip:machine=0,round=2,bit=0"},
      {"ram-emulation", "forge:round=2,to=0,index=0,from=99"},
  };
  for (const auto& [name, spec] : kCases) {
    SCOPED_TRACE(std::string(name) + " " + spec);
    const fault::ChaosResult chaos =
        run_chaos(catalog(name, kSeed, 1), "quarantine", spec, kQuarantineEvery);
    EXPECT_EQ(chaos.cost.faults_injected, 1u);
    EXPECT_GE(chaos.cost.recoveries, 1u);
    EXPECT_GT(chaos.cost.attestation_checks, 0u);
    EXPECT_TRUE(log_contains(chaos.fault_log, "detected")) << spec;
    expect_identical(run_clean(catalog(name, kSeed, 1)), chaos);
  }
}

TEST(Quarantine, IsThreadInvariant) {
  for (std::uint64_t threads : {std::uint64_t{1}, std::uint64_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const fault::ChaosResult chaos = run_chaos(catalog("pointer-chasing", kSeed, threads),
                                               "quarantine", kFlip, kQuarantineEvery);
    expect_identical(run_clean(catalog("pointer-chasing", kSeed, threads)), chaos);
  }
}

TEST(Quarantine, AuthenticatedFlipIsTypedAndStrikesTheReceiver) {
  // With authenticate_messages on, the flipped payload fails MAC
  // verification at the faulted round's own barrier: detection is a typed
  // TamperViolation naming the machine, and quarantine strikes it directly
  // instead of needing the attestation cross-check to localise.
  const fault::ChaosResult chaos = run_chaos(catalog("pointer-chasing", kSeed, 1, true),
                                             "quarantine", kFlip, kQuarantineEvery);
  EXPECT_GE(chaos.cost.quarantine_strikes, 1u);
  EXPECT_TRUE(log_contains(chaos.fault_log, "machine 1 struck"));
  EXPECT_TRUE(log_contains(chaos.fault_log, "detected"));
  expect_identical(run_clean(catalog("pointer-chasing", kSeed, 1, true)), chaos);
}

TEST(Quarantine, SilentFlipIsLocalisedByAttestationDigests) {
  // No authentication: the flip corrupts machine 1's round-start memory
  // silently, the clean-replica cross-check sees the divergence, and the
  // per-machine attestation digests name machine 1 as the one that differs.
  const fault::ChaosResult chaos =
      run_chaos(catalog("pointer-chasing", kSeed, 1), "quarantine", kFlip, kQuarantineEvery);
  EXPECT_TRUE(log_contains(chaos.fault_log, "attestation mismatch at machine 1"));
  EXPECT_TRUE(log_contains(chaos.fault_log, "machine 1 struck"));
}

TEST(Quarantine, EscalatesToPeriodicCheckpointWhenRetriesExhausted) {
  fault::QuarantineConfig qc;
  qc.max_round_retries = 0;  // any detection escalates immediately
  const fault::ChaosResult chaos =
      run_chaos(catalog("pointer-chasing", kSeed, 1), "quarantine", kFlip, 2, qc);
  EXPECT_GE(chaos.cost.escalations, 1u);
  EXPECT_TRUE(log_contains(chaos.fault_log, "escalation:"));
  EXPECT_TRUE(log_contains(chaos.fault_log, "periodic checkpoint"));
  expect_identical(run_clean(catalog("pointer-chasing", kSeed, 1)), chaos);
}

TEST(Quarantine, RejectsZeroCheckpointCadence) {
  EXPECT_THROW(run_chaos(catalog("ram-emulation", kSeed, 1), "quarantine", "kill:round=1", 0),
               std::invalid_argument);
}

TEST(TamperCheckpoint, CorruptedSnapshotFailsIntegrityCheckAtRestore) {
  // Unit level: a post-save bit flip in the encoded snapshot must be caught
  // by the wire format's checksum, never resumed from.
  const serve::Scenario s = catalog("ram-emulation", kSeed, 1);
  fault::Checkpointer ckpt(s.config, nullptr, 1, "", true);
  mpc::MpcSimulation sim(s.config, nullptr);
  sim.run(*s.algo, s.initial, &ckpt);
  ASSERT_TRUE(ckpt.latest_encoded().has_value());
  EXPECT_NO_THROW(fault::deserialize(*ckpt.latest_encoded()));
  ASSERT_TRUE(ckpt.corrupt_latest_encoded(12345));
  EXPECT_THROW(fault::deserialize(*ckpt.latest_encoded()), fault::CheckpointError);
  // The corrupted image stays stored — the checkpointer keeps no decoded
  // copy to fall back on, so a restore can only decode it and fail.
  EXPECT_TRUE(ckpt.latest_encoded().has_value());
}

TEST(TamperCheckpoint, RestartPolicyRefusesToResumeFromTamperedSnapshot) {
  // End to end: tamper the round-1 snapshot, then kill at round 2 so the
  // restart policy has to restore exactly the tampered image. CheckpointError
  // (not a silent resume of corrupted state) is the required outcome.
  EXPECT_THROW(run_chaos(catalog("ram-emulation", kSeed, 1), "restart",
                         "tamper-ckpt:round=1,bit=9;kill:round=2", /*every=*/1),
               fault::CheckpointError);
}

TEST(GarbleOracle, CorruptsMemoAndVerifyMemoNamesTheInput) {
  hash::LazyRandomOracle oracle(16, 16, kSeed);
  for (std::uint64_t i = 0; i < 3; ++i) oracle.query(BitString::from_uint(i, 16));
  EXPECT_TRUE(oracle.verify_memo().empty());

  ASSERT_TRUE(oracle.corrupt_memo_entry(1, 4));
  std::vector<BitString> bad = oracle.verify_memo();
  ASSERT_EQ(bad.size(), 1u);
  // Entry 1 in sorted input order is input value 1.
  EXPECT_EQ(bad[0], BitString::from_uint(1, 16));

  // Restoring a fresh oracle from records of the tampered table must be
  // refused: the memo is a materialised pure function of the seed, and
  // restore_table re-derives every distinct input.
  std::vector<hash::QueryRecord> records;
  for (const auto& [input, output] : oracle.touched_table()) {
    records.push_back({0, 0, records.size(), input, output});
  }
  hash::LazyRandomOracle fresh(16, 16, kSeed);
  EXPECT_THROW(fresh.restore_table(records), std::invalid_argument);

  EXPECT_FALSE(oracle.corrupt_memo_entry(99));  // out of range: fired no-op
}

// ---- satellite: ObserverChain must deliver hooks past a throwing child ----

struct ThrowingObserver final : mpc::RoundObserver {
  std::string tag;
  explicit ThrowingObserver(std::string t) : tag(std::move(t)) {}
  void before_round(std::uint64_t) override { throw std::runtime_error(tag); }
  void after_merge(std::uint64_t, std::vector<std::vector<mpc::Message>>&) override {
    throw std::runtime_error(tag);
  }
  void after_round(const mpc::RoundSnapshot&) override { throw std::runtime_error(tag); }
};

struct CountingObserver final : mpc::RoundObserver {
  int before = 0, merges = 0, afters = 0;
  void before_round(std::uint64_t) override { ++before; }
  void after_merge(std::uint64_t, std::vector<std::vector<mpc::Message>>&) override { ++merges; }
  void after_round(const mpc::RoundSnapshot&) override { ++afters; }
};

TEST(ObserverChain, DeliversEveryHookEvenWhenAnEarlierChildThrows) {
  ThrowingObserver thrower("boom");
  CountingObserver counter;
  fault::ObserverChain chain({&thrower, &counter});
  std::vector<std::vector<mpc::Message>> inboxes;
  mpc::RoundSnapshot snapshot;

  EXPECT_THROW(chain.before_round(0), std::runtime_error);
  EXPECT_THROW(chain.after_merge(0, inboxes), std::runtime_error);
  EXPECT_THROW(chain.after_round(snapshot), std::runtime_error);
  // The child *behind* the thrower saw every barrier anyway: a throwing
  // injector must not blind the checkpointer chained after it.
  EXPECT_EQ(counter.before, 1);
  EXPECT_EQ(counter.merges, 1);
  EXPECT_EQ(counter.afters, 1);
}

TEST(ObserverChain, FirstThrowerWinsWhenSeveralThrow) {
  ThrowingObserver first("first");
  ThrowingObserver second("second");
  fault::ObserverChain chain({&first, &second});
  try {
    chain.before_round(0);
    FAIL() << "expected the collected exception to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");  // chain order encodes detection priority
  }
}

// ---- satellite: dup under ReplicateRound, drop aimed at an empty inbox ----

TEST(MessageFaults, DuplicateRecoversUnderReplicateRound) {
  const fault::ChaosResult chaos =
      run_chaos(catalog("ram-emulation", kSeed, 1), "replicate", "dup:round=2,to=0,index=0", 1);
  EXPECT_EQ(chaos.cost.faults_injected, 1u);
  EXPECT_EQ(chaos.cost.replica_verifications, 1u);
  EXPECT_EQ(chaos.cost.rounds_reexecuted, 2u);  // two replicas of the one round
  expect_identical(run_clean(catalog("ram-emulation", kSeed, 1)), chaos);
}

/// Nobody ever sends; machine 0 outputs in round 1. Every inbox past round 0
/// is empty, so a drop aimed at one names a delivery that does not exist.
class SilentAlgorithm final : public mpc::MpcAlgorithm {
 public:
  void run_machine(mpc::MachineIo& io, hash::CountingOracle*, const mpc::SharedTape&,
                   mpc::RoundTrace&) override {
    if (io.round == 1 && io.machine == 0) io.output = BitString::from_uint(1, 8);
  }
  std::string name() const override { return "silent"; }
};

TEST(MessageFaults, DropOnEmptyInboxFiresAsNoOpAndNeedsNoRecovery) {
  mpc::MpcConfig c;
  c.machines = 2;
  c.local_memory_bits = 64;
  c.query_budget = 1;
  c.max_rounds = 4;
  c.tape_seed = 5;
  SilentAlgorithm algo;

  // Even fail-stop injection has nothing to detect: the event fires (it is
  // consumed and logged) but there is no delivery to remove and no throw.
  fault::FaultInjector injector(fault::FaultPlan::parse("drop:round=0,to=1,index=0"),
                                /*fail_stop=*/true);
  mpc::MpcSimulation sim(c, nullptr);
  mpc::MpcRunResult run = sim.run(algo, {BitString(), BitString()}, &injector);
  EXPECT_TRUE(run.completed);
  EXPECT_EQ(injector.faults_fired(), 1u);

  // Same contract through a recovery policy: nothing is detected (the
  // policies count *caught* faults), so nothing is recovered or re-executed.
  SilentAlgorithm algo2;
  fault::ChaosHarness harness(c, [] { return std::shared_ptr<hash::LazyRandomOracle>(); });
  fault::ChaosResult chaos = harness.run(
      "replicate", algo2, {BitString(), BitString()},
      fault::FaultPlan::parse("drop:round=0,to=1,index=0"), /*every=*/1);
  EXPECT_TRUE(chaos.run.completed);
  EXPECT_EQ(chaos.cost.faults_injected, 0u);
  EXPECT_EQ(chaos.cost.recoveries, 0u);
  EXPECT_EQ(chaos.cost.rounds_reexecuted, 0u);
}

// ---- the socket wire path (transport/socket.hpp) ----
//
// The verbs above tamper with in-process state. With the socket backend the
// message bytes cross a real process boundary, so the same attacks can be
// mounted *on the wire* — a flipped frame off a router socket is
// indistinguishable from a compromised router's output. Detection must be
// the identical typed path with the identical provenance, and quarantine
// recovery over forked routers must still converge to the fault-free run.

// TSan cannot follow fork()ed routers; MPCH_SKIP_SOCKET_TRANSPORT=1 skips
// the socket-path tests so the rest of this suite still runs under it.
bool skip_socket_backend() {
  const char* v = std::getenv("MPCH_SKIP_SOCKET_TRANSPORT");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

TEST(Quarantine, FlipAndForgeOverSocketTransportRecoverBitIdentical) {
  // The clean reference runs in-process: recovery over the socket backend
  // must reproduce it bit for bit, not merely recover to *something*.
  if (skip_socket_backend()) GTEST_SKIP() << "MPCH_SKIP_SOCKET_TRANSPORT set";
  const char* kSpecs[] = {"flip:machine=1,round=3,bit=2", "forge:round=3,to=1,index=0,from=99"};
  for (const char* spec : kSpecs) {
    SCOPED_TRACE(spec);
    const fault::ChaosResult chaos =
        run_chaos(catalog("pointer-chasing", kSeed, 1, false, transport::TransportKind::kSocket, 2),
                  "quarantine", spec, kQuarantineEvery);
    EXPECT_EQ(chaos.cost.faults_injected, 1u);
    EXPECT_GE(chaos.cost.recoveries, 1u);
    EXPECT_TRUE(log_contains(chaos.fault_log, "detected")) << spec;
    expect_identical(run_clean(catalog("pointer-chasing", kSeed, 1)), chaos);
  }
}

TEST(ByzantineWire, SocketWireFlipIsTypedWithInProcessProvenance) {
  // Flip the same logical bits two ways — in-process (mutating machine 1's
  // merged round-3 inbox through an observer) and on the wire (mutating the
  // decoded frames off the router socket) — and require the *same*
  // TamperViolation: machine, round, message index, byte offset.
  if (skip_socket_backend()) GTEST_SKIP() << "MPCH_SKIP_SOCKET_TRANSPORT set";
  struct InboxFlip final : mpc::RoundObserver {
    void after_merge(std::uint64_t round,
                     std::vector<std::vector<mpc::Message>>& next_inboxes) override {
      if (round != 3) return;
      for (auto& msg : next_inboxes[1]) msg.payload.set(2, !msg.payload.get(2));
    }
  };

  std::optional<mpc::TamperViolation> in_process;
  {
    const serve::Scenario s = catalog("pointer-chasing", kSeed, 1, true);
    mpc::MpcSimulation sim(s.config, s.make_oracle());
    InboxFlip flip;
    try {
      sim.run(*s.algo, s.initial, &flip);
      FAIL() << "in-process flip went undetected";
    } catch (const mpc::TamperViolation& tv) {
      in_process = tv;
    }
  }

  std::optional<mpc::TamperViolation> wire;
  {
    const serve::Scenario s = catalog("pointer-chasing", kSeed, 1, true);
    mpc::MpcSimulation sim(s.config, s.make_oracle());
    sim.set_transport_factory([] {
      transport::TransportOptions options;
      options.processes = 2;
      auto t = std::make_unique<transport::SocketTransport>(options);
      t->set_wire_tamper([](transport::WireFrame& frame) {
        if (frame.round == 3 && frame.to == 1) {
          frame.payload.set(2, !frame.payload.get(2));
        }
      });
      return t;
    });
    try {
      sim.run(*s.algo, s.initial);
      FAIL() << "wire flip went undetected";
    } catch (const mpc::TamperViolation& tv) {
      wire = tv;
    }
  }

  ASSERT_TRUE(in_process.has_value());
  ASSERT_TRUE(wire.has_value());
  EXPECT_EQ(in_process->machine(), wire->machine());
  EXPECT_EQ(in_process->round(), 3u);
  EXPECT_EQ(wire->round(), 3u);
  EXPECT_EQ(in_process->message_index(), wire->message_index());
  EXPECT_EQ(in_process->byte_offset(), wire->byte_offset());
}

}  // namespace
}  // namespace mpch
