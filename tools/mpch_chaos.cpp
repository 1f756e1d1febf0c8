// mpch-chaos — fault-injection and recovery driver for the MPC strategies.
//
//   mpch-chaos --plan crash:machine=2,round=3 --policy restart --every 2
//   mpch-chaos --strategy colluding --plan kill:round=4 --policy replicate
//   mpch-chaos --strategy ram-emulation --plan "drop:round=2,to=0,index=0"
//              --policy restart --every 1 --threads 8
//   mpch-chaos --plan crash:machine=1,round=2 --policy none   # unprotected
//   mpch-chaos --plan kill:round=4 --policy restart --format json
//
// Runs one strategy twice: once fault-free (the reference), once under the
// fault plan with the chosen recovery policy. Because the simulator is
// bit-deterministic, a correct recovery is *verifiable*: the recovered run's
// output, round stats, oracle transcript, and materialised oracle table must
// all be identical to the fault-free run, and this tool checks every one of
// them. It then prints a recovery-cost report (extra rounds, re-executed
// machine-rounds, snapshot bytes). Scenarios come from the shared serve
// catalog (src/serve/scenario.hpp), so a chaos job submitted through
// mpch-serve runs the exact same construction as this tool.
//
// Policies: restart (RestartFromCheckpoint, snapshot every --every rounds),
// replicate (ReplicateRound, dual re-execution + equality check), quarantine
// (Byzantine: silent faults, per-round replica cross-check + attestation
// localisation, strikes, escalation), none (apply faults silently — the
// unprotected baseline; Byzantine verbs are still *audited* after the fact,
// so a landed flip/forge/garble/tamper-ckpt is reported typed, never silent).
//
// Byzantine verbs: flip:machine=M,round=R,bit=B | forge:round=R,to=M,index=I,
// from=F | garble-oracle:round=R,entry=E | tamper-ckpt:round=R,bit=B.
// --authenticate turns on MAC-tagged messaging (MpcConfig::
// authenticate_messages) in both the reference and the chaos run; under
// --policy none it is auto-enabled when the plan carries flip/forge, since
// MACs are what makes those detectable.
//
// --format json emits one machine-readable report object instead of the text
// report; exit semantics are identical either way.
//
// Exit status: 0 recovered and verified; 1 unrecoverable fault, replica
// divergence, verification mismatch, or a typed Byzantine detection under
// --policy none; 2 usage error.
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "fault/checkpoint.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "fault/recovery.hpp"
#include "hash/random_oracle.hpp"
#include "mpc/simulation.hpp"
#include "serve/scenario.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

using namespace mpch;

namespace {

/// Everything one invocation learns, for the --format json emitter. Text
/// mode prints incrementally (so long runs stream); JSON mode collects here
/// and emits once at exit.
struct Report {
  std::string strategy;
  std::uint64_t seed = 0;
  std::uint64_t threads = 0;
  std::string policy;
  std::string plan;
  std::string transport;
  bool authenticate = false;
  bool auth_auto = false;
  bool ref_completed = false;
  std::uint64_t ref_rounds = 0;
  bool ran = false;
  bool run_completed = false;
  std::uint64_t run_rounds = 0;
  std::uint64_t faults_applied = 0;
  std::uint64_t faults_planned = 0;
  bool has_cost = false;
  fault::RecoveryCost cost;
  std::vector<std::string> fault_log;
  std::vector<std::string> mismatches;
  std::vector<std::string> detections;
  std::string error;
};

void emit_json(const Report& r, int exit_code) {
  util::JsonWriter w;
  w.begin_object();
  w.member("strategy", r.strategy);
  w.member("seed", r.seed);
  w.member("threads", r.threads);
  w.member("policy", r.policy);
  w.member("plan", r.plan);
  w.member("transport", r.transport);
  w.member("authenticate", r.authenticate);
  w.member("authenticate_auto", r.auth_auto);
  w.key("reference").begin_object();
  w.member("completed", r.ref_completed);
  w.member("rounds_used", r.ref_rounds);
  w.end_object();
  if (r.ran) {
    w.key("run").begin_object();
    w.member("completed", r.run_completed);
    w.member("rounds_used", r.run_rounds);
    w.member("faults_applied", r.faults_applied);
    w.member("faults_planned", r.faults_planned);
    w.end_object();
  }
  if (r.has_cost) {
    w.key("cost").begin_object();
    w.member("faults_injected", r.cost.faults_injected);
    w.member("recoveries", r.cost.recoveries);
    w.member("rounds_reexecuted", r.cost.rounds_reexecuted);
    w.member("machine_rounds_reexecuted", r.cost.machine_rounds_reexecuted);
    w.member("replica_verifications", r.cost.replica_verifications);
    w.member("checkpoints_taken", r.cost.checkpoints_taken);
    w.member("checkpoint_bytes_last", r.cost.checkpoint_bytes_last);
    w.member("checkpoint_bytes_total", r.cost.checkpoint_bytes_total);
    w.member("attestation_checks", r.cost.attestation_checks);
    w.member("quarantine_strikes", r.cost.quarantine_strikes);
    w.member("retries_used", r.cost.retries_used);
    w.member("escalations", r.cost.escalations);
    w.end_object();
  }
  w.key("fault_log").begin_array();
  for (const auto& line : r.fault_log) w.value(line);
  w.end_array();
  w.key("mismatches").begin_array();
  for (const auto& m : r.mismatches) w.value(m);
  w.end_array();
  w.key("detections").begin_array();
  for (const auto& d : r.detections) w.value(d);
  w.end_array();
  if (!r.error.empty()) w.member("error", r.error);
  w.member("verified", r.ran && r.mismatches.empty() && r.detections.empty() && r.error.empty());
  w.member("exit_code", std::int64_t(exit_code));
  w.end_object();
  std::cout << w.str() << "\n";
}

void print_cost(const fault::RecoveryCost& cost) {
  std::cout << "recovery cost:\n"
            << "  faults injected:              " << cost.faults_injected << "\n"
            << "  recoveries:                   " << cost.recoveries << "\n"
            << "  extra rounds re-executed:     " << cost.rounds_reexecuted << "\n"
            << "  extra machine-rounds:         " << cost.machine_rounds_reexecuted << "\n"
            << "  replica verifications:        " << cost.replica_verifications << "\n"
            << "  checkpoints taken:            " << cost.checkpoints_taken << "\n"
            << "  checkpoint bytes (last/total): " << cost.checkpoint_bytes_last << " / "
            << cost.checkpoint_bytes_total << "\n";
  if (cost.attestation_checks > 0 || cost.quarantine_strikes > 0 || cost.retries_used > 0 ||
      cost.escalations > 0) {
    std::cout << "  attestation cross-checks:     " << cost.attestation_checks << "\n"
              << "  quarantine strikes:           " << cost.quarantine_strikes << "\n"
              << "  round retries used:           " << cost.retries_used << "\n"
              << "  escalations:                  " << cost.escalations << "\n";
  }
}

/// Policy-none storage scrubber: re-decodes the stored snapshot at every
/// barrier (chained after the CheckpointTamperer), so a tampered save is
/// caught before the next round's save overwrites it.
struct CheckpointAuditor : mpc::RoundObserver {
  const fault::Checkpointer* ckpt = nullptr;
  std::vector<std::string> failures;
  void after_round(const mpc::RoundSnapshot&) override {
    if (ckpt == nullptr || !ckpt->latest_encoded().has_value()) return;
    try {
      fault::deserialize(*ckpt->latest_encoded());
    } catch (const fault::CheckpointError& e) {
      failures.emplace_back(e.what());
    }
  }
};

bool plan_has(const fault::FaultPlan& plan, fault::FaultKind kind) {
  for (const auto& ev : plan.events) {
    if (ev.kind == kind) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliArgs args(argc, argv);
  if (args.get_bool("help", false)) {
    std::cout << "usage: mpch-chaos --plan SPEC [--strategy NAME]\n"
                 "                  [--policy restart|replicate|quarantine|none]\n"
                 "                  [--every N] [--retries N] [--strikes N] [--authenticate]\n"
                 "                  [--threads N] [--seed N] [--checkpoint-file PATH] [--list]\n"
                 "                  [--transport in-process|socket] [--transport-procs N]\n"
                 "                  [--format text|json]\n"
                 "  plan grammar : semicolon-separated events —\n"
                 "                 crash:machine=M,round=R | drop:round=R,to=M,index=I\n"
                 "                 | dup:round=R,to=M,index=I | kill:round=R\n"
                 "                 | flip:machine=M,round=R,bit=B\n"
                 "                 | forge:round=R,to=M,index=I,from=F\n"
                 "                 | garble-oracle:round=R,entry=E | tamper-ckpt:round=R,bit=B\n"
                 "                 | random:seed=S,events=E,rounds=R,machines=M\n"
                 "  --policy     : restart    = RestartFromCheckpoint (snapshot every --every rounds)\n"
                 "                 replicate  = ReplicateRound (dual re-execution + equality check)\n"
                 "                 quarantine = Byzantine: silent faults, per-round replica\n"
                 "                              cross-check, attestation localisation, strikes\n"
                 "                              (--retries per-round re-runs, --strikes before\n"
                 "                              escalating, --every periodic-checkpoint cadence)\n"
                 "                 none       = apply faults silently, no recovery (baseline);\n"
                 "                              Byzantine verbs still audited typed (exit 1)\n"
                 "  --authenticate : MAC-tag every cross-round message (detects flip/forge at the\n"
                 "                   barrier as mpc::TamperViolation with provenance)\n"
                 "  --transport  : message delivery backend (default in-process). socket forks\n"
                 "                 one router process per shard group (--transport-procs, default\n"
                 "                 auto) — recovery runs bit-identical over any backend\n"
                 "  --format     : text (default) or one machine-readable json report object\n";
    return 0;
  }
  if (args.get_bool("list", false)) {
    for (const auto& name : serve::strategy_names()) std::cout << name << "\n";
    return 0;
  }

  const std::string strategy = args.get_string("strategy", "pointer-chasing");
  const std::string plan_spec = args.get_string("plan", "");
  const std::string policy = args.get_string("policy", "restart");
  const std::uint64_t every = args.get_u64("every", 2);
  const std::uint64_t retries = args.get_u64("retries", 2);
  const std::uint64_t strikes = args.get_u64("strikes", 3);
  bool authenticate = args.get_bool("authenticate", false);
  const std::uint64_t threads = args.get_u64("threads", 0);
  const std::uint64_t seed = args.get_u64("seed", 11);
  const std::string checkpoint_file = args.get_string("checkpoint-file", "");
  const std::string transport_name = args.get_string("transport", "in-process");
  const std::uint64_t transport_procs = args.get_u64("transport-procs", 0);
  const std::string format = args.get_string("format", "text");

  if (plan_spec.empty()) {
    std::cerr << "mpch-chaos: --plan is required (try --help)\n";
    return 2;
  }
  if (policy != "restart" && policy != "replicate" && policy != "quarantine" && policy != "none") {
    std::cerr << "mpch-chaos: unknown policy '" << policy
              << "' (want restart|replicate|quarantine|none)\n";
    return 2;
  }
  if (format != "text" && format != "json") {
    std::cerr << "mpch-chaos: unknown format '" << format << "' (want text|json)\n";
    return 2;
  }
  const bool json = format == "json";

  fault::FaultPlan plan;
  serve::Scenario reference;
  transport::TransportKind transport_kind = transport::TransportKind::kInProcess;
  try {
    plan = fault::FaultPlan::parse(plan_spec);
    transport_kind = transport::parse_transport_kind(transport_name);
    reference = serve::make_scenario(strategy, seed, threads);
  } catch (const std::invalid_argument& e) {
    std::cerr << "mpch-chaos: " << e.what() << "\n";
    return 2;
  }
  // Every execution of this invocation — the fault-free reference, the
  // chaotic run, and the recovery policy's internal replicas — moves its
  // bytes over the selected backend.
  auto select_transport = [&](serve::Scenario& sc) {
    sc.config.transport = transport_kind;
    sc.config.transport_processes = transport_procs;
  };
  select_transport(reference);
  for (const auto& unused : args.unused()) {
    std::cerr << "mpch-chaos: unknown flag --" << unused << "\n";
    return 2;
  }

  // Under --policy none, flip/forge would otherwise corrupt silently: MACs
  // are the detector, so turn them on (affects reference and chaos alike).
  const bool needs_mac =
      plan_has(plan, fault::FaultKind::FlipBit) || plan_has(plan, fault::FaultKind::ForgeMessage);
  bool auth_auto = false;
  if (policy == "none" && needs_mac && !authenticate) {
    authenticate = true;
    auth_auto = true;
  }
  // Tag bits count against the memory budget; give every machine headroom
  // for its per-message 64-bit tags so tight strategies stay inside s.
  auto enable_auth = [](serve::Scenario& sc) {
    sc.config.authenticate_messages = true;
    sc.config.local_memory_bits += 1 << 16;
  };
  if (authenticate) enable_auth(reference);

  Report report;
  report.strategy = strategy;
  report.seed = seed;
  report.threads = threads;
  report.policy = policy;
  report.plan = plan.describe();
  report.transport = transport::to_string(transport_kind);
  report.authenticate = authenticate;
  report.auth_auto = auth_auto;
  auto finish = [&](int code) {
    if (json) emit_json(report, code);
    return code;
  };

  if (!json) {
    std::cout << "mpch-chaos: strategy=" << strategy << " threads=" << threads << " seed=" << seed
              << " transport=" << transport::to_string(transport_kind)
              << (authenticate ? (auth_auto ? " authenticate=on (auto)" : " authenticate=on") : "")
              << "\n  plan:   " << plan.describe() << "\n  policy: " << policy;
    if (policy == "restart") std::cout << " (checkpoint every " << every << " round(s))";
    if (policy == "quarantine") {
      std::cout << " (retries " << retries << ", strikes " << strikes
                << ", periodic checkpoint every " << every << " round(s))";
    }
    std::cout << "\n\n";
  }

  // Fault-free reference run: the ground truth recovery must reproduce.
  auto ref_oracle = reference.make_oracle();
  mpc::MpcRunResult ref_run;
  try {
    mpc::MpcSimulation ref_sim(reference.config, ref_oracle);
    ref_run = ref_sim.run(*reference.algo, reference.initial);
  } catch (const std::exception& e) {
    std::cerr << "mpch-chaos: fault-free reference run failed: " << e.what() << "\n";
    return 2;
  }
  report.ref_completed = ref_run.completed;
  report.ref_rounds = ref_run.rounds_used;
  if (!json) {
    std::cout << "reference run: " << (ref_run.completed ? "completed" : "hit max_rounds")
              << " in " << ref_run.rounds_used << " round(s)\n";
  }

  // Chaos run under the chosen policy. Fresh scenario: strategy-internal
  // counters must not carry over from the reference run.
  serve::Scenario chaos = serve::make_scenario(strategy, seed, threads);
  select_transport(chaos);
  if (authenticate) enable_auth(chaos);
  try {
    if (policy == "none") {
      // Unprotected baseline: faults applied silently, no recovery. Crash-
      // model faults show up as divergence from the reference (exit 0 — the
      // report is the product); Byzantine faults are *audited* afterwards —
      // MAC verification, oracle memo re-derivation, checkpoint decode — and
      // any landed corruption exits 1 with a typed report, never silently.
      fault::FaultInjector injector(plan, /*fail_stop=*/false);
      auto oracle = chaos.make_oracle();
      injector.bind_oracle(oracle.get());
      const bool audit_ckpt = plan_has(plan, fault::FaultKind::TamperCheckpoint);
      fault::Checkpointer ckpt(chaos.config, oracle.get(), /*every=*/1, "",
                               /*capture_final=*/true);
      fault::CheckpointTamperer tamperer(plan);
      tamperer.set_target(&ckpt);
      CheckpointAuditor auditor;
      auditor.ckpt = &ckpt;
      std::vector<mpc::RoundObserver*> children{&injector};
      if (audit_ckpt) {
        children.push_back(&ckpt);
        children.push_back(&tamperer);
        children.push_back(&auditor);
      }
      fault::ObserverChain chain(children);
      mpc::MpcSimulation sim(chaos.config, oracle);
      mpc::MpcRunResult run;
      try {
        run = sim.run(*chaos.algo, chaos.initial, &chain);
      } catch (const mpc::TamperViolation& tv) {
        report.detections.push_back(std::string("typed: ") + tv.what());
        if (!json) {
          std::cout << "detected (typed): " << tv.what() << "\n  provenance: machine="
                    << tv.machine() << " round=" << tv.round()
                    << " message_index=" << tv.message_index()
                    << " byte_offset=" << tv.byte_offset() << "\n";
        }
        return finish(1);
      }
      report.ran = true;
      report.run_completed = run.completed;
      report.run_rounds = run.rounds_used;
      report.faults_applied = injector.faults_fired() + tamperer.fired().size();
      report.faults_planned = injector.events_planned();
      if (!json) {
        std::cout << "unprotected run: " << (run.completed ? "completed" : "hit max_rounds")
                  << " in " << run.rounds_used << " round(s), " << report.faults_applied << "/"
                  << report.faults_planned << " fault(s) applied\n";
      }
      report.mismatches =
          serve::artifact_mismatches(ref_run, ref_oracle.get(), run, oracle.get());
      if (!json) {
        if (report.mismatches.empty()) {
          std::cout << "divergence: none (the faults did not land on live state)\n";
        } else {
          std::cout << "divergence (expected without recovery):\n";
          for (const auto& b : report.mismatches) std::cout << "  - " << b << "\n";
        }
      }
      if (oracle != nullptr) {
        auto bad_memo = oracle->verify_memo();
        if (!bad_memo.empty()) {
          report.detections.push_back("oracle memo audit: " + std::to_string(bad_memo.size()) +
                                      " entries no longer re-derive from the seed");
          if (!json) {
            std::cout << "detected (typed): oracle memo audit — " << bad_memo.size() << " entr"
                      << (bad_memo.size() == 1 ? "y" : "ies")
                      << " no longer re-derive from the seed\n";
          }
        }
      }
      for (const auto& failure : auditor.failures) {
        report.detections.push_back("checkpoint audit: " + failure);
        if (!json) std::cout << "detected (typed): checkpoint audit — " << failure << "\n";
      }
      // Divergence without recovery is the expected baseline (exit 0); only
      // typed detections make the unprotected run exit nonzero.
      return finish(report.detections.empty() ? 0 : 1);
    }

    fault::ChaosHarness harness(chaos.config, [&chaos] { return chaos.make_oracle(); });
    fault::ChaosResult result;
    if (policy == "restart") {
      result = harness.run_restart(*chaos.algo, chaos.initial, plan, every, checkpoint_file);
    } else if (policy == "replicate") {
      result = harness.run_replicate(*chaos.algo, chaos.initial, plan);
    } else {
      fault::QuarantineConfig qc;
      qc.max_round_retries = retries;
      qc.escalate_after_strikes = strikes;
      qc.checkpoint_every = every;
      result = harness.run_quarantine(*chaos.algo, chaos.initial, plan, qc);
    }

    report.ran = true;
    report.run_completed = result.run.completed;
    report.run_rounds = result.run.rounds_used;
    report.has_cost = true;
    report.cost = result.cost;
    report.fault_log = result.fault_log;
    if (!json) {
      std::cout << "fault log:\n";
      for (const auto& line : result.fault_log) std::cout << "  - " << line << "\n";
      if (result.fault_log.empty()) std::cout << "  (no fault fired before completion)\n";
      std::cout << "recovered run: " << (result.run.completed ? "completed" : "hit max_rounds")
                << " in " << result.run.rounds_used << " round(s)\n\n";
      print_cost(result.cost);
      if (!checkpoint_file.empty()) {
        std::cout << "latest checkpoint mirrored to: " << checkpoint_file << "\n";
      }
    }

    report.mismatches =
        serve::artifact_mismatches(ref_run, ref_oracle.get(), result.run, result.oracle.get());
    if (!report.mismatches.empty()) {
      if (!json) {
        std::cout << "\nverification: FAILED — recovered run differs from fault-free run:\n";
        for (const auto& b : report.mismatches) std::cout << "  - " << b << "\n";
      }
      return finish(1);
    }
    if (!json) {
      std::cout << "\nverification: recovered run is bit-identical to the fault-free run\n"
                   "  (output, round stats, annotations, oracle transcript, oracle table)\n";
    }
    return finish(0);
  } catch (const fault::UnrecoverableFault& e) {
    report.error = std::string("unrecoverable: ") + e.what();
    std::cerr << "mpch-chaos: unrecoverable: " << e.what() << "\n";
    return finish(1);
  } catch (const fault::ReplicaDivergence& e) {
    report.error = std::string("replica divergence: ") + e.what();
    std::cerr << "mpch-chaos: replica divergence: " << e.what() << "\n";
    return finish(1);
  } catch (const std::exception& e) {
    report.error = e.what();
    std::cerr << "mpch-chaos: " << e.what() << "\n";
    return finish(1);
  }
}
