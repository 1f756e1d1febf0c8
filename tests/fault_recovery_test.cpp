// fault_recovery_test.cpp — the chaos differential suite.
//
// The determinism the simulator guarantees (the matrix in
// transport_conformance_test.cpp) makes recovery *verifiable*: a run that is
// killed mid-flight, restored from a checkpoint, and resumed must be
// bit-identical to one that never faulted — same output, same per-round
// RoundStats (peak witnesses included), same annotations, same canonical
// oracle transcript, same materialised oracle table and lifetime query
// count. This suite pins that for every catalog strategy at thread counts
// {1, 8}, plus crash/drop/dup faults, the ReplicateRound policy, the
// unrecoverable-fault path, and a recorded report for every policy and verb.
#include "fault/recovery.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include "fault/checkpoint.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "hash/sha256.hpp"
#include "mpc/auth.hpp"
#include "mpc/simulation.hpp"
#include "scenario_runs.hpp"
#include "serve/scenario.hpp"

namespace mpch {
namespace {

constexpr std::uint64_t kSeed = 11;

TEST(ChaosRecovery, KillRestoreResumeIsBitIdenticalForEveryStrategy) {
  for (const std::string& name : serve::strategy_names()) {
    // Kill at round 3 after a save every 2 rounds (late enough for a
    // checkpoint to exist), or at round 1 after a save every round for the
    // two strategies that finish in two rounds.
    const bool two_rounds = name == "dictionary" || name == "full-memory";
    const std::string plan = two_rounds ? "kill:round=1" : "kill:round=3";
    const std::uint64_t every = two_rounds ? 1 : 2;
    for (std::uint64_t threads : {std::uint64_t{1}, std::uint64_t{8}}) {
      SCOPED_TRACE(name + " threads=" + std::to_string(threads));
      const fault::ChaosResult chaos =
          run_chaos(catalog(name, kSeed, threads), "restart", plan, every);
      EXPECT_EQ(chaos.cost.faults_injected, 1u);
      EXPECT_EQ(chaos.cost.recoveries, 1u);
      expect_identical(run_clean(catalog(name, kSeed, threads)), chaos);
    }
  }
}

TEST(ChaosRecovery, CrashRestoreResumeIsBitIdentical) {
  for (const std::string name : {"pointer-chasing", "ram-emulation"}) {
    for (std::uint64_t threads : {std::uint64_t{1}, std::uint64_t{8}}) {
      SCOPED_TRACE(name + " threads=" + std::to_string(threads));
      const fault::ChaosResult chaos =
          run_chaos(catalog(name, kSeed, threads), "restart", "crash:machine=2,round=3", 2);
      EXPECT_EQ(chaos.cost.faults_injected, 1u);
      // The crashed round itself re-executes, so at least one round is redone.
      EXPECT_GE(chaos.cost.rounds_reexecuted, 1u);
      expect_identical(run_clean(catalog(name, kSeed, threads)), chaos);
    }
  }
}

TEST(ChaosRecovery, DropAndDuplicateRecoverUnderRestart) {
  for (const std::string spec : {"drop:round=2,to=0,index=0", "dup:round=2,to=0,index=0"}) {
    SCOPED_TRACE(spec);
    const fault::ChaosResult chaos =
        run_chaos(catalog("ram-emulation", kSeed, 1), "restart", spec, 1);
    EXPECT_EQ(chaos.cost.faults_injected, 1u);
    expect_identical(run_clean(catalog("ram-emulation", kSeed, 1)), chaos);
  }
}

TEST(ChaosRecovery, ReplicateRoundVerifiesAndMatchesCleanRun) {
  for (const std::string name : {"pointer-chasing", "ram-emulation"}) {
    SCOPED_TRACE(name);
    const fault::ChaosResult chaos =
        run_chaos(catalog(name, kSeed, 1), "replicate", "crash:machine=1,round=3", 1);
    EXPECT_EQ(chaos.cost.faults_injected, 1u);
    EXPECT_EQ(chaos.cost.replica_verifications, 1u);
    EXPECT_EQ(chaos.cost.rounds_reexecuted, 2u);  // two replicas of one round
    expect_identical(run_clean(catalog(name, kSeed, 1)), chaos);
  }
}

TEST(ChaosRecovery, ReplicateHandlesRoundZeroFaults) {
  // ReplicateRound seeds itself with the initial checkpoint, so even a
  // round-0 crash (before any periodic snapshot could exist) is recoverable.
  const fault::ChaosResult chaos =
      run_chaos(catalog("pointer-chasing", kSeed, 1), "replicate", "crash:machine=0,round=0", 1);
  EXPECT_EQ(chaos.cost.faults_injected, 1u);
  expect_identical(run_clean(catalog("pointer-chasing", kSeed, 1)), chaos);
}

TEST(ChaosRecovery, MultiFaultPlanRecoversEveryEvent) {
  const fault::ChaosResult chaos =
      run_chaos(catalog("colluding", kSeed, 8), "restart",
                "crash:machine=1,round=2;kill:round=5;dup:round=7,to=2,index=0", 2);
  EXPECT_EQ(chaos.cost.faults_injected, 3u);
  EXPECT_EQ(chaos.cost.recoveries, 3u);
  expect_identical(run_clean(catalog("colluding", kSeed, 8)), chaos);
}

TEST(ChaosRecovery, FaultBeforeFirstCheckpointIsUnrecoverableWithProvenance) {
  try {
    run_chaos(catalog("pointer-chasing", kSeed, 1), "restart", "kill:round=0", 2);
    FAIL() << "expected UnrecoverableFault";
  } catch (const fault::UnrecoverableFault& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("kill the simulation before round 0"), std::string::npos) << what;
    EXPECT_NE(what.find("no checkpoint exists yet"), std::string::npos) << what;
  }
}

TEST(ChaosRecovery, CheckpointFileMirrorIsLoadable) {
  const std::string path = "chaos_recovery_mirror.ckpt";
  const serve::Scenario s = catalog("pointer-chasing", kSeed, 1);
  const fault::ChaosResult chaos = run_chaos(s, "restart", "kill:round=3", 2, {}, path);
  EXPECT_TRUE(chaos.run.completed);
  fault::Checkpoint cp = fault::load_checkpoint_file(path);
  EXPECT_EQ(cp.machines, s.config.machines);
  EXPECT_GT(cp.next_round, 0u);
  EXPECT_GT(chaos.cost.checkpoint_bytes_last, 0u);
  // The mirror is the one save path that encodes at every save; pin its
  // bytes. mpch-chaos mirrors the same final checkpoint in CI's crash smoke
  // (pointer-chasing, crash:machine=2,round=3, --every 2), which checks
  // this digest too.
  std::ifstream in(path, std::ios::binary);
  const std::string file((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_EQ(hash::Sha256::to_hex(hash::Sha256::hash(file)),
            "b9d51a06e907a19b2c0f7d05b52123e46893aa0ee4027fba42367b6330535b20");
  std::remove(path.c_str());
}

TEST(ChaosRecovery, SilentFaultsCorruptTheRun) {
  // The contrapositive: with detection off (no recovery), a dropped delivery
  // must actually change the execution — otherwise the suite above would be
  // vacuous.
  const Execution clean = run_clean(catalog("ram-emulation", kSeed, 1));
  serve::Scenario s = catalog("ram-emulation", kSeed, 1);
  // The dropped delivery stalls the emulation forever; cap the corrupted run
  // well above the clean round count so the divergence is cheap to observe.
  s.config.max_rounds = 200;
  fault::FaultInjector injector(fault::FaultPlan::parse("drop:round=2,to=0,index=0"),
                                /*fail_stop=*/false);
  mpc::MpcSimulation sim(s.config, s.make_oracle());
  const mpc::MpcRunResult run = sim.run(*s.algo, s.initial, &injector);
  EXPECT_EQ(injector.faults_fired(), 1u);
  EXPECT_FALSE(run.completed == clean.run.completed && run.output == clean.run.output &&
               run.trace.rounds() == clean.run.trace.rounds())
      << "silently dropping a delivery did not perturb the execution";
}

// Pinned reports: each policy crossed with each fault verb on pointer-chasing
// seed 11, every RecoveryCost field and the full fault log (or the exception
// a throwing case ends in) asserted exactly against a recording. A refactor
// of the recovery code must leave every line of these reports in place.
std::string pinned_report(const std::string& policy, const std::string& plan_spec,
                          bool authenticate) {
  std::ostringstream out;
  try {
    // MAC tags ride in the payload: apply_run_options grants room for them.
    // Restart and quarantine save every 2 rounds; replicate saves every round.
    const fault::ChaosResult r =
        run_chaos(catalog("pointer-chasing", kSeed, 1, authenticate), policy, plan_spec, 2);
    const fault::RecoveryCost& c = r.cost;
    out << "completed=" << r.run.completed << " rounds_used=" << r.run.rounds_used << "\n"
        << "faults_injected=" << c.faults_injected << " recoveries=" << c.recoveries
        << " rounds_reexecuted=" << c.rounds_reexecuted
        << " machine_rounds_reexecuted=" << c.machine_rounds_reexecuted
        << " replica_verifications=" << c.replica_verifications << "\n"
        << "checkpoints_taken=" << c.checkpoints_taken
        << " checkpoint_bytes_last=" << c.checkpoint_bytes_last
        << " checkpoint_bytes_total=" << c.checkpoint_bytes_total << "\n"
        << "attestation_checks=" << c.attestation_checks
        << " quarantine_strikes=" << c.quarantine_strikes << " retries_used=" << c.retries_used
        << " escalations=" << c.escalations << "\n";
    for (const auto& line : r.fault_log) out << "log: " << line << "\n";
  } catch (const fault::UnrecoverableFault& e) {
    out << "throws UnrecoverableFault: " << e.what() << "\n";
  } catch (const fault::ReplicaDivergence& e) {
    out << "throws ReplicaDivergence: " << e.what() << "\n";
  } catch (const fault::CheckpointError& e) {
    out << "throws CheckpointError: " << e.what() << "\n";
  } catch (const mpc::TamperViolation& e) {
    out << "throws TamperViolation: " << e.what() << "\n";
  } catch (const fault::InjectedFault& e) {
    out << "throws InjectedFault: " << e.what() << "\n";
  }
  return out.str();
}

struct PinnedCase {
  const char* policy;
  const char* plan;
  bool authenticate;
  const char* expected;
};

const PinnedCase kPinnedCases[] = {
    {"restart", "kill:round=3", false,
     R"x(completed=1 rounds_used=73
faults_injected=1 recoveries=1 rounds_reexecuted=1 machine_rounds_reexecuted=4 replica_verifications=0
checkpoints_taken=36 checkpoint_bytes_last=18848 checkpoint_bytes_total=345776
attestation_checks=0 quarantine_strikes=0 retries_used=0 escalations=0
log: injected fault: kill the simulation before round 3
log: recovered: restored checkpoint at round boundary 2, re-executing 1 round(s)
)x"},
    {"restart", "crash:machine=2,round=3", false,
     R"x(completed=1 rounds_used=73
faults_injected=1 recoveries=1 rounds_reexecuted=2 machine_rounds_reexecuted=8 replica_verifications=0
checkpoints_taken=36 checkpoint_bytes_last=18848 checkpoint_bytes_total=345776
attestation_checks=0 quarantine_strikes=0 retries_used=0 escalations=0
log: injected fault: crash machine 2 in round 3 (detected at the round 3 barrier)
log: recovered: restored checkpoint at round boundary 2, re-executing 2 round(s)
)x"},
    {"restart", "drop:round=3,to=1,index=0", false,
     R"x(completed=1 rounds_used=73
faults_injected=1 recoveries=1 rounds_reexecuted=2 machine_rounds_reexecuted=8 replica_verifications=0
checkpoints_taken=36 checkpoint_bytes_last=18848 checkpoint_bytes_total=345776
attestation_checks=0 quarantine_strikes=0 retries_used=0 escalations=0
log: injected fault: drop message 0 delivered to machine 1 after round 3 (detected at the round 3 barrier)
log: recovered: restored checkpoint at round boundary 2, re-executing 2 round(s)
)x"},
    {"restart", "dup:round=3,to=1,index=0", false,
     R"x(completed=1 rounds_used=73
faults_injected=1 recoveries=1 rounds_reexecuted=2 machine_rounds_reexecuted=8 replica_verifications=0
checkpoints_taken=36 checkpoint_bytes_last=18848 checkpoint_bytes_total=345776
attestation_checks=0 quarantine_strikes=0 retries_used=0 escalations=0
log: injected fault: duplicate message 0 delivered to machine 1 after round 3 (detected at the round 3 barrier)
log: recovered: restored checkpoint at round boundary 2, re-executing 2 round(s)
)x"},
    {"restart", "flip:machine=1,round=3,bit=2", false,
     R"x(completed=1 rounds_used=73
faults_injected=1 recoveries=1 rounds_reexecuted=2 machine_rounds_reexecuted=8 replica_verifications=0
checkpoints_taken=36 checkpoint_bytes_last=18848 checkpoint_bytes_total=345776
attestation_checks=0 quarantine_strikes=0 retries_used=0 escalations=0
log: injected fault: flip bit 2 of machine 1's inbox after round 3 (detected at the round 3 barrier)
log: recovered: restored checkpoint at round boundary 2, re-executing 2 round(s)
)x"},
    {"restart", "forge:round=3,to=1,index=0,from=3", true,
     R"x(completed=1 rounds_used=73
faults_injected=1 recoveries=1 rounds_reexecuted=2 machine_rounds_reexecuted=8 replica_verifications=0
checkpoints_taken=36 checkpoint_bytes_last=18888 checkpoint_bytes_total=347216
attestation_checks=0 quarantine_strikes=0 retries_used=0 escalations=0
log: injected fault: forge sender of message 0 delivered to machine 1 after round 3 (claim machine 3) (detected at the round 3 barrier)
log: recovered: restored checkpoint at round boundary 2, re-executing 2 round(s)
)x"},
    {"restart", "garble-oracle:round=3,entry=0", false,
     R"x(completed=1 rounds_used=73
faults_injected=1 recoveries=1 rounds_reexecuted=1 machine_rounds_reexecuted=4 replica_verifications=0
checkpoints_taken=36 checkpoint_bytes_last=18848 checkpoint_bytes_total=345776
attestation_checks=0 quarantine_strikes=0 retries_used=0 escalations=0
log: injected fault: garble memoised oracle entry 0 before round 3 (detected before round 3)
log: recovered: restored checkpoint at round boundary 2, re-executing 1 round(s)
)x"},
    {"restart", "tamper-ckpt:round=3,bit=100", false,
     R"x(completed=1 rounds_used=73
faults_injected=1 recoveries=0 rounds_reexecuted=0 machine_rounds_reexecuted=0 replica_verifications=0
checkpoints_taken=36 checkpoint_bytes_last=18848 checkpoint_bytes_total=345776
attestation_checks=0 quarantine_strikes=0 retries_used=0 escalations=0
)x"},
    {"restart", "tamper-ckpt:round=3,bit=100;kill:round=4", false,
     R"x(throws CheckpointError: unsupported checkpoint version 134217730 (this build reads version 2)
)x"},
    {"restart", "drop:round=3,to=1,index=99", false,
     R"x(completed=1 rounds_used=73
faults_injected=0 recoveries=0 rounds_reexecuted=0 machine_rounds_reexecuted=0 replica_verifications=0
checkpoints_taken=36 checkpoint_bytes_last=18848 checkpoint_bytes_total=345776
attestation_checks=0 quarantine_strikes=0 retries_used=0 escalations=0
)x"},
    {"restart", "crash:machine=1,round=2;flip:machine=0,round=4,bit=5;kill:round=6;dup:round=8,to=2,index=0", false,
     R"x(completed=1 rounds_used=73
faults_injected=4 recoveries=4 rounds_reexecuted=3 machine_rounds_reexecuted=12 replica_verifications=0
checkpoints_taken=36 checkpoint_bytes_last=18848 checkpoint_bytes_total=345776
attestation_checks=0 quarantine_strikes=0 retries_used=0 escalations=0
log: injected fault: crash machine 1 in round 2 (detected at the round 2 barrier)
log: recovered: restored checkpoint at round boundary 2, re-executing 1 round(s)
log: injected fault: flip bit 5 of machine 0's inbox after round 4 (detected at the round 4 barrier)
log: recovered: restored checkpoint at round boundary 4, re-executing 1 round(s)
log: injected fault: kill the simulation before round 6
log: recovered: restored checkpoint at round boundary 6, re-executing 0 round(s)
log: injected fault: duplicate message 0 delivered to machine 2 after round 8 (detected at the round 8 barrier)
log: recovered: restored checkpoint at round boundary 8, re-executing 1 round(s)
)x"},
    {"replicate", "kill:round=3", false,
     R"x(completed=1 rounds_used=73
faults_injected=1 recoveries=1 rounds_reexecuted=0 machine_rounds_reexecuted=0 replica_verifications=0
checkpoints_taken=72 checkpoint_bytes_last=18848 checkpoint_bytes_total=682296
attestation_checks=0 quarantine_strikes=0 retries_used=0 escalations=0
log: injected fault: kill the simulation before round 3
log: recovered: resumed from round boundary 3
)x"},
    {"replicate", "crash:machine=2,round=3", false,
     R"x(completed=1 rounds_used=73
faults_injected=1 recoveries=1 rounds_reexecuted=2 machine_rounds_reexecuted=8 replica_verifications=1
checkpoints_taken=71 checkpoint_bytes_last=18848 checkpoint_bytes_total=681000
attestation_checks=0 quarantine_strikes=0 retries_used=0 escalations=0
log: injected fault: crash machine 2 in round 3 (detected at the round 3 barrier)
log: recovered: round 3 re-executed on two replicas, merged states bit-identical
)x"},
    {"replicate", "drop:round=3,to=1,index=0", false,
     R"x(completed=1 rounds_used=73
faults_injected=1 recoveries=1 rounds_reexecuted=2 machine_rounds_reexecuted=8 replica_verifications=1
checkpoints_taken=71 checkpoint_bytes_last=18848 checkpoint_bytes_total=681000
attestation_checks=0 quarantine_strikes=0 retries_used=0 escalations=0
log: injected fault: drop message 0 delivered to machine 1 after round 3 (detected at the round 3 barrier)
log: recovered: round 3 re-executed on two replicas, merged states bit-identical
)x"},
    {"replicate", "dup:round=3,to=1,index=0", false,
     R"x(completed=1 rounds_used=73
faults_injected=1 recoveries=1 rounds_reexecuted=2 machine_rounds_reexecuted=8 replica_verifications=1
checkpoints_taken=71 checkpoint_bytes_last=18848 checkpoint_bytes_total=681000
attestation_checks=0 quarantine_strikes=0 retries_used=0 escalations=0
log: injected fault: duplicate message 0 delivered to machine 1 after round 3 (detected at the round 3 barrier)
log: recovered: round 3 re-executed on two replicas, merged states bit-identical
)x"},
    {"replicate", "flip:machine=1,round=3,bit=2", false,
     R"x(completed=1 rounds_used=73
faults_injected=1 recoveries=1 rounds_reexecuted=2 machine_rounds_reexecuted=8 replica_verifications=1
checkpoints_taken=71 checkpoint_bytes_last=18848 checkpoint_bytes_total=681000
attestation_checks=0 quarantine_strikes=0 retries_used=0 escalations=0
log: injected fault: flip bit 2 of machine 1's inbox after round 3 (detected at the round 3 barrier)
log: recovered: round 3 re-executed on two replicas, merged states bit-identical
)x"},
    {"replicate", "forge:round=3,to=1,index=0,from=3", true,
     R"x(completed=1 rounds_used=73
faults_injected=1 recoveries=1 rounds_reexecuted=2 machine_rounds_reexecuted=8 replica_verifications=1
checkpoints_taken=71 checkpoint_bytes_last=18888 checkpoint_bytes_total=683840
attestation_checks=0 quarantine_strikes=0 retries_used=0 escalations=0
log: injected fault: forge sender of message 0 delivered to machine 1 after round 3 (claim machine 3) (detected at the round 3 barrier)
log: recovered: round 3 re-executed on two replicas, merged states bit-identical
)x"},
    {"replicate", "garble-oracle:round=3,entry=0", false,
     R"x(completed=1 rounds_used=73
faults_injected=1 recoveries=1 rounds_reexecuted=2 machine_rounds_reexecuted=8 replica_verifications=1
checkpoints_taken=71 checkpoint_bytes_last=18848 checkpoint_bytes_total=681000
attestation_checks=0 quarantine_strikes=0 retries_used=0 escalations=0
log: injected fault: garble memoised oracle entry 0 before round 3 (detected before round 3)
log: recovered: round 3 re-executed on two replicas, merged states bit-identical
)x"},
    {"replicate", "tamper-ckpt:round=3,bit=100", false,
     R"x(completed=1 rounds_used=73
faults_injected=1 recoveries=0 rounds_reexecuted=0 machine_rounds_reexecuted=0 replica_verifications=0
checkpoints_taken=72 checkpoint_bytes_last=18848 checkpoint_bytes_total=682296
attestation_checks=0 quarantine_strikes=0 retries_used=0 escalations=0
)x"},
    {"replicate", "tamper-ckpt:round=3,bit=100;kill:round=4", false,
     R"x(throws CheckpointError: unsupported checkpoint version 134217730 (this build reads version 2)
)x"},
    {"replicate", "drop:round=3,to=1,index=99", false,
     R"x(completed=1 rounds_used=73
faults_injected=0 recoveries=0 rounds_reexecuted=0 machine_rounds_reexecuted=0 replica_verifications=0
checkpoints_taken=72 checkpoint_bytes_last=18848 checkpoint_bytes_total=682296
attestation_checks=0 quarantine_strikes=0 retries_used=0 escalations=0
)x"},
    {"replicate", "crash:machine=1,round=2;flip:machine=0,round=4,bit=5;kill:round=6;dup:round=8,to=2,index=0", false,
     R"x(completed=1 rounds_used=73
faults_injected=4 recoveries=4 rounds_reexecuted=6 machine_rounds_reexecuted=24 replica_verifications=3
checkpoints_taken=69 checkpoint_bytes_last=18848 checkpoint_bytes_total=677208
attestation_checks=0 quarantine_strikes=0 retries_used=0 escalations=0
log: injected fault: crash machine 1 in round 2 (detected at the round 2 barrier)
log: recovered: round 2 re-executed on two replicas, merged states bit-identical
log: injected fault: flip bit 5 of machine 0's inbox after round 4 (detected at the round 4 barrier)
log: recovered: round 4 re-executed on two replicas, merged states bit-identical
log: injected fault: kill the simulation before round 6
log: recovered: resumed from round boundary 6
log: injected fault: duplicate message 0 delivered to machine 2 after round 8 (detected at the round 8 barrier)
log: recovered: round 8 re-executed on two replicas, merged states bit-identical
)x"},
    {"quarantine", "kill:round=3", false,
     R"x(completed=1 rounds_used=73
faults_injected=1 recoveries=1 rounds_reexecuted=74 machine_rounds_reexecuted=296 replica_verifications=74
checkpoints_taken=147 checkpoint_bytes_last=19083 checkpoint_bytes_total=1404054
attestation_checks=74 quarantine_strikes=0 retries_used=1 escalations=0
log: detected: injected fault: kill the simulation before round 3
log: recovered: re-running round 3 on fresh replicas (retry 1)
)x"},
    {"quarantine", "crash:machine=2,round=3", false,
     R"x(completed=1 rounds_used=73
faults_injected=1 recoveries=1 rounds_reexecuted=74 machine_rounds_reexecuted=296 replica_verifications=74
checkpoints_taken=148 checkpoint_bytes_last=19083 checkpoint_bytes_total=1405309
attestation_checks=74 quarantine_strikes=1 retries_used=1 escalations=0
log: detected: round 3 attestation mismatch at machine 2 (live digest 9646740496828132460 != replica digest 4125820951262901783)
log: quarantine: machine 2 struck (1 strike(s)), its round 3 execution discarded
log: recovered: re-running round 3 on fresh replicas (retry 1)
)x"},
    {"quarantine", "drop:round=3,to=1,index=0", false,
     R"x(completed=1 rounds_used=73
faults_injected=1 recoveries=1 rounds_reexecuted=74 machine_rounds_reexecuted=296 replica_verifications=74
checkpoints_taken=148 checkpoint_bytes_last=19083 checkpoint_bytes_total=1405317
attestation_checks=74 quarantine_strikes=1 retries_used=1 escalations=0
log: detected: round 3 attestation mismatch at machine 1 (live digest 3888835265251015970 != replica digest 17983279387761873345)
log: quarantine: machine 1 struck (1 strike(s)), its round 3 execution discarded
log: recovered: re-running round 3 on fresh replicas (retry 1)
)x"},
    {"quarantine", "dup:round=3,to=1,index=0", false,
     R"x(completed=1 rounds_used=73
faults_injected=1 recoveries=1 rounds_reexecuted=74 machine_rounds_reexecuted=296 replica_verifications=74
checkpoints_taken=147 checkpoint_bytes_last=19083 checkpoint_bytes_total=1404054
attestation_checks=74 quarantine_strikes=0 retries_used=1 escalations=0
log: detected: live round failed — machine 1 would receive 148 bits > s=103 after round 3
log: recovered: re-running round 3 on fresh replicas (retry 1)
)x"},
    {"quarantine", "flip:machine=1,round=3,bit=2", false,
     R"x(completed=1 rounds_used=73
faults_injected=1 recoveries=1 rounds_reexecuted=74 machine_rounds_reexecuted=296 replica_verifications=74
checkpoints_taken=148 checkpoint_bytes_last=19083 checkpoint_bytes_total=1405350
attestation_checks=74 quarantine_strikes=1 retries_used=1 escalations=0
log: detected: round 3 attestation mismatch at machine 1 (live digest 4433132207213828982 != replica digest 17983279387761873345)
log: quarantine: machine 1 struck (1 strike(s)), its round 3 execution discarded
log: recovered: re-running round 3 on fresh replicas (retry 1)
)x"},
    {"quarantine", "forge:round=3,to=1,index=0,from=3", true,
     R"x(completed=1 rounds_used=73
faults_injected=1 recoveries=1 rounds_reexecuted=74 machine_rounds_reexecuted=296 replica_verifications=74
checkpoints_taken=147 checkpoint_bytes_last=19107 checkpoint_bytes_total=1409902
attestation_checks=74 quarantine_strikes=1 retries_used=1 escalations=0
log: detected: authentication failed: message 0 delivered to machine 1 after round 3 (claimed sender 3, byte offset 0 in the inbox) does not match its MAC tag
log: quarantine: machine 1 struck (1 strike(s)), its round 3 execution discarded
log: recovered: re-running round 3 on fresh replicas (retry 1)
)x"},
    {"quarantine", "garble-oracle:round=3,entry=0", false,
     R"x(completed=1 rounds_used=73
faults_injected=1 recoveries=1 rounds_reexecuted=74 machine_rounds_reexecuted=296 replica_verifications=74
checkpoints_taken=148 checkpoint_bytes_last=19083 checkpoint_bytes_total=1405350
attestation_checks=74 quarantine_strikes=0 retries_used=1 escalations=0
log: detected: round 3 diverged from its clean replica in shared state (oracle memo or trace) — all machine attestations agree
log: recovered: re-running round 3 on fresh replicas (retry 1)
)x"},
    {"quarantine", "tamper-ckpt:round=3,bit=100", false,
     R"x(completed=1 rounds_used=73
faults_injected=1 recoveries=1 rounds_reexecuted=74 machine_rounds_reexecuted=296 replica_verifications=74
checkpoints_taken=148 checkpoint_bytes_last=19083 checkpoint_bytes_total=1405350
attestation_checks=74 quarantine_strikes=0 retries_used=1 escalations=0
log: detected: round 3 snapshot audit failed — unsupported checkpoint version 134217730 (this build reads version 2)
log: recovered: re-running round 3 on fresh replicas (retry 1)
)x"},
    {"quarantine", "tamper-ckpt:round=3,bit=100;kill:round=4", false,
     R"x(completed=1 rounds_used=73
faults_injected=2 recoveries=2 rounds_reexecuted=75 machine_rounds_reexecuted=300 replica_verifications=75
checkpoints_taken=149 checkpoint_bytes_last=19083 checkpoint_bytes_total=1406886
attestation_checks=75 quarantine_strikes=0 retries_used=2 escalations=0
log: detected: round 3 snapshot audit failed — unsupported checkpoint version 134217730 (this build reads version 2)
log: recovered: re-running round 3 on fresh replicas (retry 1)
log: detected: injected fault: kill the simulation before round 4
log: recovered: re-running round 4 on fresh replicas (retry 1)
)x"},
    {"quarantine", "drop:round=3,to=1,index=99", false,
     R"x(completed=1 rounds_used=73
faults_injected=1 recoveries=0 rounds_reexecuted=73 machine_rounds_reexecuted=292 replica_verifications=73
checkpoints_taken=146 checkpoint_bytes_last=19083 checkpoint_bytes_total=1402758
attestation_checks=73 quarantine_strikes=0 retries_used=0 escalations=0
)x"},
    {"quarantine", "crash:machine=1,round=2;flip:machine=0,round=4,bit=5;kill:round=6;dup:round=8,to=2,index=0", false,
     R"x(completed=1 rounds_used=73
faults_injected=4 recoveries=4 rounds_reexecuted=77 machine_rounds_reexecuted=308 replica_verifications=77
checkpoints_taken=152 checkpoint_bytes_last=19083 checkpoint_bytes_total=1412329
attestation_checks=77 quarantine_strikes=2 retries_used=4 escalations=0
log: detected: round 2 attestation mismatch at machine 0 (live digest 15342460686825450228 != replica digest 138469522923914734)
log: quarantine: machine 0 struck (1 strike(s)), its round 2 execution discarded
log: recovered: re-running round 2 on fresh replicas (retry 1)
log: detected: round 4 attestation mismatch at machine 0 (live digest 16745228649756348574 != replica digest 2741795029773145913)
log: quarantine: machine 0 struck (2 strike(s)), its round 4 execution discarded
log: recovered: re-running round 4 on fresh replicas (retry 1)
log: detected: injected fault: kill the simulation before round 6
log: recovered: re-running round 6 on fresh replicas (retry 1)
log: detected: live round failed — machine 2 would receive 148 bits > s=103 after round 8
log: recovered: re-running round 8 on fresh replicas (retry 1)
)x"},
};

TEST(ChaosRecovery, ReportsArePinnedForEveryPolicyAndVerb) {
  for (const PinnedCase& c : kPinnedCases) {
    SCOPED_TRACE(std::string(c.policy) + " " + c.plan);
    EXPECT_EQ(pinned_report(c.policy, c.plan, c.authenticate), c.expected);
  }
}

}  // namespace
}  // namespace mpch
