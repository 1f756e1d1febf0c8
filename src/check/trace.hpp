// trace.hpp — the persisted counterexample format and its hostile-input
// loader.
//
// A counterexample is only worth anything if it outlives the process that
// found it: `mpch-model` writes violating schedules as small line-oriented
// text files, checks them into fuzz/corpus/model_trace/ as a regression
// corpus, and `--replay` re-runs them against the current tree. The loader
// is a typed-error boundary exactly like the wire and checkpoint codecs: a
// trace file is user- (or fuzzer-) supplied input, and every malformed file
// is rejected with a TraceError naming the failing gate and line — never an
// uncaught crash, never a silently-misread schedule. fuzz/
// fuzz_model_trace.cpp drives parse_trace with arbitrary bytes.
//
// Format (one field per line, single-space separated, '\n' line ends):
//
//   mpch-model-trace v1
//   protocol inbox
//   mutation skip-dedup          <- "none" when the clean protocol violated
//   bound machines=2,rounds=1    <- informational echo of --bound (optional)
//   violation inbox: duplicate...<- rest of line, verbatim
//   actions 4
//   3 deliver from=0 seq=1      <- key, space, label (rest of line)
//   ...
//   end
//
// Keys are what replay uses (Model::apply is keyed); labels are for humans
// and are carried verbatim. Replaying a trace against a model that does not
// offer the recorded key is a ReplayError (explorer.hpp), not a TraceError:
// the file was well-formed but does not match the protocol.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/model.hpp"

namespace mpch::check {

/// A trace file failed to parse. The what() string names the failing gate
/// and the line it fired on.
class TraceError : public std::invalid_argument {
 public:
  explicit TraceError(const std::string& what) : std::invalid_argument(what) {}
};

/// Ceiling on schedule length in a stored trace. Bounded exploration never
/// produces schedules remotely this long; a larger count is hostile input
/// and is rejected before any allocation sized from it.
inline constexpr std::uint64_t kMaxTraceActions = 1ULL << 16;

/// Ceiling on any single line's length (hostile unbounded-line input).
inline constexpr std::size_t kMaxTraceLineBytes = 1ULL << 12;

/// Ceiling on a whole trace file's size.
inline constexpr std::size_t kMaxTraceFileBytes = 1ULL << 20;

struct TraceFile {
  std::string protocol;          ///< model name the schedule drives
  std::string mutation = "none"; ///< seeded mutation active, or "none"
  std::string bound;             ///< informational --bound echo (may be empty)
  std::string violation;         ///< the invariant breach the schedule reaches
  std::vector<Action> schedule;

  bool operator==(const TraceFile&) const = default;
};

/// Serialise to the canonical text form (the exact bytes parse_trace reads
/// back). Throws std::invalid_argument on labels or fields that cannot be
/// represented (embedded newlines, overlong).
std::string encode_trace(const TraceFile& trace);

/// Parse the canonical text form. Every rejection is a TraceError naming
/// gate and line.
TraceFile parse_trace(const std::string& text);

/// Read and parse a trace file. Propagates TraceError for malformed content
/// and throws TraceError for unreadable or oversized files too — callers at
/// the CLI boundary handle exactly one error type.
TraceFile load_trace(const std::string& path);

/// Write the canonical text form to `path` (throws std::runtime_error on
/// I/O failure).
void save_trace(const std::string& path, const TraceFile& trace);

}  // namespace mpch::check
