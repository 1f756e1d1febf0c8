// perfbench.hpp — the benchmark's workloads, statistics, end-to-end
// campaigns, traced replay and layer microbenches.
//
// End to end, a workload is a generated jobfile pushed through the public
// serve API (serve::parse_jobfile -> ServeService::run_jobs), the engine
// behind mpch-serve. The traced run replays the same jobs one at a time
// through the pieces ServeService::execute composes, with timing decorators
// around each layer, and then re-times single layers on the inputs that
// replay captured. Everything here lives outside src/: the program under
// test is never modified to be measured.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hash/sha256.hpp"
#include "mpc/message.hpp"
#include "serve/job_spec.hpp"
#include "serve/service.hpp"
#include "transport/wire.hpp"
#include "util/bitstring.hpp"

namespace perfbench {

using namespace mpch;

// ------------------------------------------------------------ workloads

/// Every workload runs on a pool of this many serve workers.
inline constexpr std::uint64_t kWorkers = 4;

/// Why each workload exists is recorded in BENCHMARK.json and workloads.cpp.
struct Workload {
  std::string name;
  /// results_digest() of the default seed; the correctness gate compares.
  std::string default_digest;

  serve::ServeOptions options() const {
    serve::ServeOptions o;
    o.workers = kWorkers;
    return o;
  }
};

inline constexpr std::uint64_t kDefaultSeed = 1;

const std::vector<Workload>& workloads();
/// Throws std::invalid_argument for an unknown name.
const Workload& find_workload(const std::string& name);

/// The workload's jobfile for `seed`: a pure function of (name, seed).
std::string make_jobfile(const std::string& workload, std::uint64_t seed);

// ------------------------------------------------------------ statistics

double median(std::vector<double> samples);

/// The highest percentile with at least ten samples beyond it: the value
/// at rank N-11 of the sorted samples, reported as percentile 100*(N-10)/N.
/// Throws std::invalid_argument when fewer than 11 samples exist.
struct Tail {
  double percentile = 0;
  double value = 0;
};
Tail tail_percentile(std::vector<double> samples);

/// SHA-256 over newline-terminated text lines, truncated to 32 hex digits.
class Digest {
 public:
  void fold(const std::string& line);
  std::string hex();

 private:
  hash::Sha256 sha_;
};

/// Per-job artifact line: status, output bits, rounds_used, transcript
/// record count and touched-table size.
std::string artifact_line(const serve::JobResult& r);
/// Per-job line over exactly the fields mpch-serve --format json prints
/// (status, rounds_used, output_hex, oracle_queries), so its output can be
/// folded to the same value.
std::string cli_line(const serve::JobResult& r);
std::string results_digest(const std::vector<serve::JobResult>& results);
std::string cli_digest(const std::vector<serve::JobResult>& results);

/// Outside any timed region: run `sample` jobs spread evenly over the
/// campaign through ServeService::run_standalone and compare every artifact
/// surface. Returns human-readable mismatches, empty when all agree.
std::vector<std::string> standalone_mismatches(const std::vector<serve::JobSpec>& jobs,
                                               const std::vector<serve::JobResult>& results,
                                               std::size_t sample);

/// Pooled-vs-replayed comparison over every artifact surface.
std::vector<std::string> result_mismatches(const std::vector<serve::JobResult>& expected,
                                           const std::vector<serve::JobResult>& got);

// ------------------------------------------------------------ host record

struct HostRecord {
  std::uint64_t nproc = 0;
  std::string cpu_model;
  std::string compiler;
  std::string build_type;
  std::string sanitizer;  ///< empty = none detected at compile time
  std::string git_sha;
  bool git_dirty = false;
  std::uint64_t seed = 0;
};

HostRecord host_record(std::string git_sha, bool git_dirty, std::uint64_t seed);

// ------------------------------------------------------------ measurement

/// A metric as the result line reports it.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  std::uint64_t samples = 0;
};

struct RunReport {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< human-readable lines, printed before the result
  std::vector<std::string> errors;  ///< correctness failures
};

/// End-to-end run: repeated closed-loop campaigns for `seconds`.
RunReport run_end_to_end(const Workload& workload, std::uint64_t seed, double seconds);

/// Traced run: one pooled campaign, then alternating plain and traced
/// replays for `seconds`, then the layer microbenches.
RunReport run_traced(const Workload& workload, std::uint64_t seed, double seconds);

// ------------------------------------------------------------ traced replay

/// Inputs the traced replay captures for the layer microbenches.
struct Capture {
  struct OracleSample {
    serve::OracleFamily family;
    util::BitString input;
    util::BitString output;
  };
  struct Inbox {
    std::uint64_t tape_seed = 0;
    std::uint64_t round = 0;
    std::uint64_t to = 0;
    bool tagged = false;  ///< payloads carry MAC tags (authenticated job)
    std::vector<mpc::Message> messages;
  };
  std::vector<OracleSample> oracle;
  std::vector<transport::WireFrame> frames;
  std::vector<Inbox> inboxes;
  std::vector<util::BitString> checkpoints;  ///< serialised snapshots

  bool full() const;
};

/// Accumulated layer time and counts of one traced replay.
struct LayerTotals {
  std::uint64_t jobs = 0;
  double job_ns = 0;
  double oracle_ns = 0;
  std::uint64_t oracle_queries = 0;
  double run_machine_ns = 0;
  double run_machine_oracle_ns = 0;
  std::uint64_t machine_calls = 0;
  double round_ns = 0;
  double attestation_ns = 0;
  double round_machine_ns = 0;   ///< run_machine time inside timed rounds
  double round_transport_ns = 0;  ///< transport time inside timed rounds
  std::uint64_t rounds = 0;
  std::uint64_t machine_rounds = 0;
  double transport_start_ns = 0;
  std::uint64_t transport_starts = 0;
  double flush_ns = 0;
  std::uint64_t flushes = 0;
  double send_receive_ns = 0;
  std::uint64_t messages = 0;
  double wire_bytes = 0;  ///< computed: MPCF kData frame bytes of every message
  double checkpoint_save_ns = 0;
  double checkpoint_load_ns = 0;
  double checkpoint_bits = 0;
  std::uint64_t checkpoints = 0;
  double observer_ns = 0;  ///< spent inside RoundTimer/CheckpointProbe callbacks
  std::uint64_t chaos_checkpoints = 0;
  std::uint64_t rounds_reexecuted = 0;
};

/// Chaos jobs' fault-free reference runs and ChaosHarness::run_restart, both
/// timed undecorated so their ratio is the cost of recovery alone.
struct RecoveryTimes {
  double reference_ns = 0;
  double restart_ns = 0;
};

/// Replay `jobs` one at a time on the calling thread with serve's sharing
/// (one memo per oracle family, one reused arena). With `totals` null the
/// layers run undecorated; otherwise every layer is timed into `totals`,
/// and inputs are captured into `capture` when it is non-null. `recovery`
/// may only be given with `totals` null.
std::vector<serve::JobResult> replay_jobs(const std::vector<serve::JobSpec>& jobs,
                                          LayerTotals* totals, Capture* capture,
                                          RecoveryTimes* recovery = nullptr);

/// Re-time single layers on captured inputs. Throws std::runtime_error when a
/// layer's output on those inputs is wrong.
std::vector<Metric> layer_microbenches(const Capture& capture);

}  // namespace perfbench
