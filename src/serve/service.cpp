#include "serve/service.hpp"

#include <atomic>
#include <chrono>
#include <thread>

#include "analysis/spec_soundness.hpp"
#include "fault/fault_plan.hpp"
#include "mpc/auth.hpp"
#include "reduce/term.hpp"

namespace mpch::serve {

namespace {

double elapsed_ms(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

const char* job_status_name(JobStatus status) {
  switch (status) {
    case JobStatus::kOk:
      return "ok";
    case JobStatus::kRejected:
      return "rejected";
    case JobStatus::kFailed:
      return "failed";
  }
  return "?";
}

ServeService::ServeService(ServeOptions options) : options_(options) {
  if (options_.workers == 0) options_.workers = 1;
}

JobResult ServeService::execute(const JobSpec& spec, std::uint64_t job_id,
                                mpc::RoundArena* arena) {
  JobResult r;
  r.job_id = job_id;
  r.spec = spec;
  const auto start = std::chrono::steady_clock::now();
  try {
    Scenario sc = make_scenario(spec.strategy, spec.seed, spec.threads);
    apply_run_options(&sc, spec.transport, spec.transport_processes, spec.authenticate);

    // --- Admission: when the job declares a memory budget, prove the
    // strategy's declared envelope fits it, or reject with static-checker
    // provenance before a single round executes. (A job without a budget
    // runs under the scenario's own config, exactly like the standalone
    // tools — the runtime guards still apply.)
    auto* provider = dynamic_cast<analysis::ProtocolSpecProvider*>(sc.algo.get());
    analysis::ProtocolSpec declared;
    if (provider != nullptr) {
      declared = provider->protocol_spec();
      if (sc.config.authenticate_messages) {
        // The MAC lift is a reduction-calculus term (the same transfer
        // function mpch-reduce proves sound), not a serve-private rewrite.
        declared =
            reduce::apply_term(reduce::Term::with_authentication(mpc::kMessageTagBits), declared)
                .spec;
      }
      if (spec.budget_bits != 0) {
        mpc::MpcConfig admission_config = sc.config;
        admission_config.local_memory_bits = spec.budget_bits;
        r.admission = analysis::check_spec(declared, admission_config);
        if (!r.admission.ok()) {
          r.status = JobStatus::kRejected;
          r.error = "jobfile line " + std::to_string(spec.source_line) + ": " + spec.strategy +
                    " does not fit the admitted budget (" + std::to_string(spec.budget_bits) +
                    " bits)";
          r.wall_ms = elapsed_ms(start);
          return r;
        }
      }
    } else if (spec.budget_bits != 0 || spec.verb == JobVerb::kVerify) {
      r.status = JobStatus::kRejected;
      r.error = "jobfile line " + std::to_string(spec.source_line) + ": " + spec.strategy +
                " declares no ProtocolSpec to admit against";
      r.wall_ms = elapsed_ms(start);
      return r;
    }

    switch (spec.verb) {
      case JobVerb::kSimulate:
      case JobVerb::kVerify: {
        auto oracle = sc.make_oracle();
        mpc::MpcSimulation sim(sc.config, oracle);
        if (arena != nullptr) sim.set_arena(arena);
        r.run = sim.run(*sc.algo, sc.initial);
        r.oracle = std::move(oracle);
        r.status = JobStatus::kOk;
        if (spec.verb == JobVerb::kVerify) {
          r.soundness = analysis::check_soundness(declared, r.run, sc.config);
          if (!r.soundness.ok()) {
            r.status = JobStatus::kFailed;
            r.error = "declared spec is unsound against the observed run";
          }
        }
        break;
      }
      case JobVerb::kChaos: {
        // Fault-free reference first (same scenario instance), then a fresh
        // scenario for the chaotic run so strategy-internal counters never
        // carry over — mirrors mpch-chaos exactly.
        auto ref_oracle = sc.make_oracle();
        mpc::MpcSimulation ref_sim(sc.config, ref_oracle);
        if (arena != nullptr) ref_sim.set_arena(arena);
        mpc::MpcRunResult ref_run = ref_sim.run(*sc.algo, sc.initial);

        Scenario chaos = make_scenario(spec.strategy, spec.seed, spec.threads);
        apply_run_options(&chaos, spec.transport, spec.transport_processes,
                          spec.authenticate);
        fault::FaultPlan plan = fault::FaultPlan::parse(spec.plan);
        fault::ChaosHarness harness(chaos.config, [&chaos] { return chaos.make_oracle(); });
        fault::ChaosResult chaos_result =
            harness.run(spec.policy, *chaos.algo, chaos.initial, plan, spec.every);
        r.run = chaos_result.run;
        r.oracle = chaos_result.oracle;
        r.cost = chaos_result.cost;
        r.fault_log = std::move(chaos_result.fault_log);
        r.mismatches =
            artifact_mismatches(ref_run, ref_oracle.get(), r.run, r.oracle.get());
        if (r.mismatches.empty()) {
          r.status = JobStatus::kOk;
        } else {
          r.status = JobStatus::kFailed;
          r.error = "recovered run differs from the fault-free reference";
        }
        break;
      }
    }
  } catch (const std::exception& e) {
    r.status = JobStatus::kFailed;
    r.error = fault::describe_failure(e);
  }
  r.wall_ms = elapsed_ms(start);
  return r;
}

std::vector<JobResult> ServeService::run_jobs(const std::vector<JobSpec>& jobs) {
  stats_ = ServeStats{};
  std::vector<JobResult> results(jobs.size());
  std::vector<mpc::RoundArena> arenas(options_.workers);
  // Every job is already in `jobs`, so handing them out is claiming the
  // next index: each worker takes ids from one counter until it passes the
  // end, and writes each result into that job's own pre-sized slot.
  std::atomic<std::uint64_t> next{0};

  const auto start = std::chrono::steady_clock::now();
  // Plain std::thread workers on purpose: util::ThreadPool would mark them
  // as pool threads and the *inner* simulations would refuse to nest their
  // own round-level parallelism — jobs must behave exactly as standalone.
  std::vector<std::thread> pool;
  pool.reserve(options_.workers);
  for (std::uint64_t w = 0; w < options_.workers; ++w) {
    pool.emplace_back([this, w, &next, &jobs, &results, &arenas] {
      for (std::uint64_t id = next.fetch_add(1); id < jobs.size(); id = next.fetch_add(1)) {
        JobResult r = execute(jobs[id], id, &arenas[w]);
        r.worker = w;
        results[id] = std::move(r);
      }
    });
  }
  for (auto& t : pool) t.join();
  stats_.wall_ms = elapsed_ms(start);

  for (const JobResult& r : results) {
    switch (r.status) {
      case JobStatus::kOk:
        ++stats_.ok;
        break;
      case JobStatus::kRejected:
        ++stats_.rejected;
        break;
      case JobStatus::kFailed:
        ++stats_.failed;
        break;
    }
  }
  const std::uint64_t executed = stats_.ok + stats_.failed;
  if (stats_.wall_ms > 0) stats_.runs_per_sec = 1000.0 * double(executed) / stats_.wall_ms;
  for (const mpc::RoundArena& arena : arenas) {
    stats_.arena_reuses += arena.reuses();
    stats_.arena_allocations += arena.allocations();
  }
  return results;
}

JobResult ServeService::run_standalone(const JobSpec& spec, std::uint64_t job_id) {
  ServeService service(ServeOptions{1});
  return service.execute(spec, job_id, nullptr);
}

}  // namespace mpch::serve
