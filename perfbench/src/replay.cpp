// The traced replay: each job runs alone on the calling thread through the
// same pieces ServeService::execute composes (make_scenario, the job's
// transport and authentication settings, Scenario::make_oracle with the
// family's shared memo, MpcSimulation with a reused arena, and
// ChaosHarness::run_restart for chaos jobs). Serve exposes no hooks, so
// each layer is timed by a decorator defined here:
//
//   TimedOracle     hash::RandomOracle around Scenario::make_oracle(memo)
//   TimedTransport  transport::Transport, via set_transport_factory
//   TimedAlgorithm  mpc::MpcAlgorithm around the strategy's run_machine
//   RoundTimer      mpc::RoundObserver timing every round
//   CheckpointProbe mpc::RoundObserver timing capture+serialize and
//                   deserialize+make_resume_state at a chaos job's
//                   checkpoint cadence
//
// Chaos jobs (restart policy only) decorate their fault-free reference run,
// the only run the probe watches. Without LayerTotals the same composition
// runs undecorated, which is what the overhead is measured against; that
// undecorated pass also times the reference run against
// ChaosHarness::run_restart as a whole, so both sides of the recovery ratio
// carry no decorator cost.
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <optional>

#include "fault/checkpoint.hpp"
#include "fault/fault_plan.hpp"
#include "fault/recovery.hpp"
#include "fault/recovery_core.hpp"
#include "mpc/auth.hpp"
#include "perfbench.hpp"
#include "serve/scenario.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double ns_since(Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start).count();
}

constexpr std::size_t kMaxOracleSamples = 4096;
constexpr std::size_t kMaxFrames = 8192;
constexpr std::size_t kMaxInboxes = 4096;
constexpr std::size_t kMaxCheckpoints = 128;

/// ServeService applies exactly these job settings to a fresh scenario.
void apply_job_config(const serve::JobSpec& spec, serve::Scenario* sc) {
  sc->config.transport = spec.transport;
  sc->config.transport_processes = spec.transport_processes;
  if (spec.authenticate) {
    sc->config.authenticate_messages = true;
    sc->config.local_memory_bits += 1 << 16;
  }
}

class TimedOracle final : public hash::RandomOracle {
 public:
  TimedOracle(std::shared_ptr<hash::RandomOracle> inner, serve::OracleFamily family,
              LayerTotals& totals, Capture* capture)
      : inner_(std::move(inner)), family_(family), totals_(totals), capture_(capture) {}

  util::BitString query(const util::BitString& input) override {
    const auto start = Clock::now();
    util::BitString out = inner_->query(input);
    totals_.oracle_ns += ns_since(start);
    ++totals_.oracle_queries;
    if (capture_ != nullptr && capture_->oracle.size() < kMaxOracleSamples) {
      capture_->oracle.push_back({family_, input, out});
    }
    return out;
  }
  std::size_t input_bits() const override { return inner_->input_bits(); }
  std::size_t output_bits() const override { return inner_->output_bits(); }
  std::uint64_t total_queries() const override { return inner_->total_queries(); }

 private:
  std::shared_ptr<hash::RandomOracle> inner_;
  serve::OracleFamily family_;
  LayerTotals& totals_;
  Capture* capture_;
};

class TimedTransport final : public transport::Transport {
 public:
  TimedTransport(std::unique_ptr<transport::Transport> inner, const mpc::MpcConfig& config,
                 LayerTotals& totals, Capture* capture)
      : inner_(std::move(inner)),
        tape_seed_(config.tape_seed),
        tagged_(config.authenticate_messages),
        totals_(totals),
        capture_(capture) {}

  std::string name() const override { return inner_->name(); }

  void start(std::uint64_t machines) override {
    const auto start = Clock::now();
    inner_->start(machines);
    totals_.transport_start_ns += ns_since(start);
    ++totals_.transport_starts;
  }

  bool stage(std::uint64_t round, std::uint64_t machine,
             const std::vector<mpc::Message>& outbox) override {
    return inner_->stage(round, machine, outbox);
  }
  std::vector<mpc::Message> collect_staged(std::uint64_t round, std::uint64_t machine) override {
    return inner_->collect_staged(round, machine);
  }

  void send(std::uint64_t round, std::uint64_t from, std::vector<mpc::Message> outbox) override {
    totals_.messages += outbox.size();
    for (std::size_t seq = 0; seq < outbox.size(); ++seq) {
      const mpc::Message& msg = outbox[seq];
      totals_.wire_bytes += double(transport::kFrameHeaderBytes + (msg.bits() + 7) / 8);
      if (capture_ != nullptr && capture_->frames.size() < kMaxFrames) {
        capture_->frames.push_back(
            {transport::FrameType::kData, round, from, seq, msg.to, msg.payload, {}});
      }
    }
    const auto start = Clock::now();
    inner_->send(round, from, std::move(outbox));
    totals_.send_receive_ns += ns_since(start);
  }

  void flush(std::uint64_t round) override {
    const auto start = Clock::now();
    inner_->flush(round);
    totals_.flush_ns += ns_since(start);
    ++totals_.flushes;
  }

  std::vector<mpc::Message> receive(std::uint64_t round, std::uint64_t to) override {
    const auto start = Clock::now();
    std::vector<mpc::Message> inbox = inner_->receive(round, to);
    totals_.send_receive_ns += ns_since(start);
    if (capture_ != nullptr && !inbox.empty() && capture_->inboxes.size() < kMaxInboxes) {
      capture_->inboxes.push_back({tape_seed_, round, to, tagged_, inbox});
    }
    return inbox;
  }

  bool idle() const override { return inner_->idle(); }

 private:
  std::unique_ptr<transport::Transport> inner_;
  std::uint64_t tape_seed_;
  bool tagged_;
  LayerTotals& totals_;
  Capture* capture_;
};

class TimedAlgorithm final : public mpc::MpcAlgorithm {
 public:
  TimedAlgorithm(std::shared_ptr<mpc::MpcAlgorithm> inner, LayerTotals& totals)
      : inner_(std::move(inner)), totals_(totals) {}

  void run_machine(mpc::MachineIo& io, hash::CountingOracle* oracle, const mpc::SharedTape& tape,
                   mpc::RoundTrace& trace) override {
    const double oracle_before = totals_.oracle_ns;
    const auto start = Clock::now();
    inner_->run_machine(io, oracle, tape, trace);
    totals_.run_machine_ns += ns_since(start);
    totals_.run_machine_oracle_ns += totals_.oracle_ns - oracle_before;
    ++totals_.machine_calls;
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::shared_ptr<mpc::MpcAlgorithm> inner_;
  LayerTotals& totals_;
};

/// Round time, with the strategy and transport time spent inside it. An
/// attached observer makes the round loop compute attestation digests; the
/// timer re-times them on the same inboxes so they can be taken out.
class RoundTimer final : public mpc::RoundObserver {
 public:
  RoundTimer(const mpc::MpcConfig& config, LayerTotals& totals)
      : machines_(config.machines), tape_seed_(config.tape_seed), totals_(totals) {}

  void before_round(std::uint64_t /*round*/) override {
    machine_at_start_ = totals_.run_machine_ns;
    transport_at_start_ = transport_ns();
    start_ = Clock::now();
  }

  void after_round(const mpc::RoundSnapshot& snapshot) override {
    totals_.round_ns += ns_since(start_);
    totals_.round_machine_ns += totals_.run_machine_ns - machine_at_start_;
    totals_.round_transport_ns += transport_ns() - transport_at_start_;
    const auto start = Clock::now();
    (void)mpc::attestation_digests(tape_seed_, snapshot.round, *snapshot.next_inboxes);
    const double attestation = ns_since(start);
    totals_.attestation_ns += attestation;
    totals_.observer_ns += attestation;
    ++totals_.rounds;
    totals_.machine_rounds += machines_;
  }

 private:
  double transport_ns() const { return totals_.send_receive_ns + totals_.flush_ns; }

  std::uint64_t machines_;
  std::uint64_t tape_seed_;
  LayerTotals& totals_;
  Clock::time_point start_{};
  double machine_at_start_ = 0;
  double transport_at_start_ = 0;
};

class CheckpointProbe final : public mpc::RoundObserver {
 public:
  using OracleFactory = std::function<std::shared_ptr<hash::LazyRandomOracle>()>;

  CheckpointProbe(const mpc::MpcConfig& config, const hash::LazyRandomOracle* oracle,
                  OracleFactory fresh_oracle, std::uint64_t every, LayerTotals& totals,
                  Capture* capture)
      : config_(config),
        oracle_(oracle),
        fresh_oracle_(std::move(fresh_oracle)),
        every_(every),
        totals_(totals),
        capture_(capture) {}

  void after_round(const mpc::RoundSnapshot& snapshot) override {
    // Checkpointer's rule: periodic snapshots only, none after the output.
    if (snapshot.completed || !fault::snapshot_due(snapshot.round, every_)) return;
    const auto save = Clock::now();
    util::BitString bits = fault::serialize(fault::capture(snapshot, config_, oracle_));
    totals_.checkpoint_save_ns += ns_since(save);

    std::shared_ptr<hash::LazyRandomOracle> fresh = fresh_oracle_();
    const auto load = Clock::now();
    (void)fault::make_resume_state(fault::deserialize(bits), fresh.get());
    totals_.checkpoint_load_ns += ns_since(load);

    totals_.checkpoint_bits += double(bits.size());
    ++totals_.checkpoints;
    if (capture_ != nullptr && capture_->checkpoints.size() < kMaxCheckpoints) {
      capture_->checkpoints.push_back(std::move(bits));
    }
    totals_.observer_ns += ns_since(save);
  }

 private:
  mpc::MpcConfig config_;
  const hash::LazyRandomOracle* oracle_;
  OracleFactory fresh_oracle_;
  std::uint64_t every_;
  LayerTotals& totals_;
  Capture* capture_;
};

using MemoMap = std::map<serve::OracleFamily, std::shared_ptr<hash::SharedOracleMemo>>;

std::shared_ptr<hash::SharedOracleMemo> memo_for(MemoMap& memos,
                                                 const serve::OracleFamily& family) {
  auto it = memos.find(family);
  if (it == memos.end()) {
    it = memos
             .emplace(family, std::make_shared<hash::SharedOracleMemo>(family.in_bits,
                                                                       family.out_bits,
                                                                       family.seed))
             .first;
  }
  return it->second;
}

serve::JobResult replay_one(const serve::JobSpec& spec, std::uint64_t job_id, MemoMap& memos,
                            mpc::RoundArena& arena, LayerTotals* totals, Capture* capture,
                            RecoveryTimes* recovery) {
  serve::JobResult r;
  r.job_id = job_id;
  r.spec = spec;
  const auto start = Clock::now();
  try {
    if (spec.verb == serve::JobVerb::kVerify || spec.budget_bits != 0) {
      throw std::invalid_argument("the replay covers simulate and chaos jobs without a budget");
    }
    if (spec.verb == serve::JobVerb::kChaos && spec.policy != "restart") {
      throw std::invalid_argument("the replay covers the restart recovery policy only");
    }
    if (totals != nullptr && spec.threads > 1) {
      throw std::invalid_argument("the traced replay runs each job's machines serially");
    }
    serve::Scenario sc = serve::make_scenario(spec.strategy, spec.seed, spec.threads);
    apply_job_config(spec, &sc);
    std::shared_ptr<hash::SharedOracleMemo> memo =
        sc.family.present() ? memo_for(memos, sc.family) : nullptr;
    std::shared_ptr<hash::LazyRandomOracle> oracle = sc.make_oracle(memo);

    std::shared_ptr<hash::RandomOracle> sim_oracle = oracle;
    std::shared_ptr<mpc::MpcAlgorithm> algo = sc.algo;
    std::optional<RoundTimer> timer;
    std::optional<CheckpointProbe> probe;
    std::optional<fault::ObserverChain> chain;
    if (totals != nullptr) {
      if (oracle != nullptr) {
        sim_oracle = std::make_shared<TimedOracle>(oracle, sc.family, *totals, capture);
      }
      algo = std::make_shared<TimedAlgorithm>(sc.algo, *totals);
      timer.emplace(sc.config, *totals);
      std::vector<mpc::RoundObserver*> observers{&*timer};
      if (spec.verb == serve::JobVerb::kChaos) {
        probe.emplace(sc.config, oracle.get(), [&sc, memo] { return sc.make_oracle(memo); },
                      spec.every, *totals, capture);
        observers.push_back(&*probe);
      }
      chain.emplace(std::move(observers));
    }
    mpc::MpcSimulation sim(sc.config, sim_oracle);
    sim.set_arena(&arena);
    if (totals != nullptr) {
      const mpc::MpcConfig config = sc.config;
      sim.set_transport_factory([config, totals, capture] {
        transport::TransportOptions options;
        options.processes = config.transport_processes;
        return std::make_unique<TimedTransport>(
            transport::make_transport(config.transport, options), config, *totals, capture);
      });
    }

    const double observed_before = totals != nullptr ? totals->observer_ns : 0;
    const auto run_start = Clock::now();
    mpc::MpcRunResult run = sim.run(*algo, sc.initial, chain ? &*chain : nullptr);
    const double run_ns =
        ns_since(run_start) - (totals != nullptr ? totals->observer_ns - observed_before : 0);

    if (spec.verb == serve::JobVerb::kSimulate) {
      r.run = std::move(run);
      r.oracle = std::move(oracle);
      r.status = serve::JobStatus::kOk;
    } else {
      serve::Scenario chaos = serve::make_scenario(spec.strategy, spec.seed, spec.threads);
      apply_job_config(spec, &chaos);
      fault::ChaosHarness harness(chaos.config, [&chaos, memo] { return chaos.make_oracle(memo); });
      const fault::FaultPlan plan = fault::FaultPlan::parse(spec.plan);
      const auto restart_start = Clock::now();
      fault::ChaosResult chaos_result =
          harness.run_restart(*chaos.algo, chaos.initial, plan, spec.every);
      if (recovery != nullptr) {
        recovery->restart_ns += ns_since(restart_start);
        recovery->reference_ns += run_ns;
      }
      if (totals != nullptr) {
        totals->chaos_checkpoints += chaos_result.cost.checkpoints_taken;
        totals->rounds_reexecuted += chaos_result.cost.rounds_reexecuted;
      }
      r.run = chaos_result.run;
      r.oracle = chaos_result.oracle;
      r.cost = chaos_result.cost;
      r.fault_log = std::move(chaos_result.fault_log);
      r.mismatches = serve::artifact_mismatches(run, oracle.get(), r.run, r.oracle.get());
      r.status = r.mismatches.empty() ? serve::JobStatus::kOk : serve::JobStatus::kFailed;
      if (!r.mismatches.empty()) r.error = "recovered run differs from the fault-free reference";
    }
  } catch (const std::exception& e) {
    r.status = serve::JobStatus::kFailed;
    r.error = e.what();
  }
  const double job_ns = ns_since(start);
  r.wall_ms = job_ns / 1e6;
  if (totals != nullptr) {
    ++totals->jobs;
    totals->job_ns += job_ns;
  }
  return r;
}

}  // namespace

bool Capture::full() const {
  return !oracle.empty() && !frames.empty() && !inboxes.empty() && !checkpoints.empty();
}

std::vector<serve::JobResult> replay_jobs(const std::vector<serve::JobSpec>& jobs,
                                          LayerTotals* totals, Capture* capture,
                                          RecoveryTimes* recovery) {
  if (totals != nullptr && recovery != nullptr) {
    // run_restart runs undecorated, so its reference must too.
    throw std::invalid_argument("recovery times come from undecorated replays only");
  }
  MemoMap memos;
  mpc::RoundArena arena;
  std::vector<serve::JobResult> results;
  results.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    results.push_back(replay_one(jobs[i], i, memos, arena, totals, capture, recovery));
  }
  return results;
}

}  // namespace perfbench
