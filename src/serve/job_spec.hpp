// job_spec.hpp — the mpch-serve jobfile grammar, as a hostile-input boundary.
//
// A jobfile describes a campaign: one job per line, thousands of lines, fed
// to the service by scripts, sweep generators, or remote users. Like the
// checkpoint/wire/trace codecs before it, the parser trusts nothing: every
// malformed line — unknown verb, unknown or duplicate key, non-numeric
// value, a repeat count that would pre-allocate an absurd number of jobs —
// is rejected through the typed JobSpecError path with the offending line
// number, never via bad_alloc, length_error, or silent acceptance.
//
// Grammar (one job per non-empty, non-comment line):
//
//   <verb> key=value [key=value ...]
//
//   verb     : simulate | chaos | verify
//   common   : strategy=<name> (required)  seed=N  threads=N  repeat=N
//              transport=in-process|socket  transport-procs=N
//              authenticate=true|false  budget-bits=N
//   chaos    : plan=<FaultPlan spec>  policy=restart|replicate|quarantine
//              every=N
// Every N, and every value in a plan, is an unsigned decimal (util/parse.hpp);
// each key appears at most once per line and per plan event; a plan holds at
// most fault::kMaxPlanEvents events.
//
// `repeat=N` expands to N jobs with seeds seed, seed+1, ..., seed+N-1 — the
// sweep primitive. Expansion is capped (kMaxRepeat per line, kMaxJobs per
// file) *before* any allocation, so a hostile "repeat=18446744073709551615"
// costs one comparison, not the address space.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "transport/transport.hpp"

namespace mpch::serve {

/// Typed rejection of a malformed jobfile; `line()` is 1-based.
class JobSpecError : public std::invalid_argument {
 public:
  JobSpecError(std::uint64_t line, const std::string& what)
      : std::invalid_argument("jobfile line " + std::to_string(line) + ": " + what), line_(line) {}

  std::uint64_t line() const { return line_; }

 private:
  std::uint64_t line_;
};

enum class JobVerb : std::uint8_t {
  kSimulate,  ///< run the strategy once, report full artifacts
  kChaos,     ///< run under a fault plan + recovery policy, verify recovery
  kVerify,    ///< static spec check + instrumented soundness run
};

const char* job_verb_name(JobVerb verb);

struct JobSpec {
  JobVerb verb = JobVerb::kSimulate;
  std::string strategy;
  std::uint64_t seed = 1;
  std::uint64_t threads = 0;  ///< inner MpcConfig::threads for this job's rounds
  transport::TransportKind transport = transport::TransportKind::kInProcess;
  std::uint64_t transport_processes = 0;
  bool authenticate = false;
  /// Per-job memory budget in bits; 0 = the strategy's documented s. A job
  /// whose declared envelope exceeds the budget is rejected at admission,
  /// before it runs (see ServeService).
  std::uint64_t budget_bits = 0;

  // Chaos-verb fields (rejected on other verbs).
  std::string plan;               ///< FaultPlan spec text, validated at parse time
  std::string policy = "restart";
  std::uint64_t every = 2;

  std::uint64_t source_line = 0;  ///< jobfile provenance (1-based)

  /// One-line human-readable description for logs and reports.
  std::string describe() const;
};

/// Pre-allocation guards: per-line repeat cap and whole-file job cap.
inline constexpr std::uint64_t kMaxRepeat = 1ULL << 12;
inline constexpr std::uint64_t kMaxJobs = 1ULL << 16;

/// Parse a whole jobfile (text, one job per line; '#' starts a comment;
/// blank lines are skipped), expanding repeat=N into N seeded jobs. Throws
/// JobSpecError with line provenance on the first malformed line.
std::vector<JobSpec> parse_jobfile(const std::string& text);

}  // namespace mpch::serve
