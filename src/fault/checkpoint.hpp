// checkpoint.hpp — versioned binary snapshots of an MPC execution.
//
// A Checkpoint captures *everything* a resumed run needs to be bit-identical
// to an uninterrupted one: the next round to execute, every machine's inbox
// (its entire cross-round memory, by Definition 2.1), the shared tape seed,
// the LazyRandomOracle's materialised sub-function in stable (sorted-input)
// key order with its lifetime query counter, the canonical oracle
// transcript, and the full RoundStats/annotation trace. Machines themselves
// are stateless across rounds, so nothing else exists to save — that is the
// model property (and PR 1's determinism guarantee) that makes
// checkpoint-based recovery *provably* correct here: a restored run can be
// checked for equality against an uninterrupted one.
//
// Wire format (see serialize()/deserialize()):
//   magic "MPCHKPT\x01" (8 bytes) | version u64 | payload_bits u64 |
//   checksum u64 (SHA-256-derived, over the payload) | payload
// The header is 32 bytes, so the payload's packed bytes are the wire's from
// byte 32 on: both directions checksum them in place.
// Any header or checksum mismatch throws CheckpointError with a diagnostic
// instead of resuming from a corrupted snapshot.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "hash/oracle_transcript.hpp"
#include "hash/random_oracle.hpp"
#include "mpc/simulation.hpp"
#include "mpc/trace.hpp"
#include "util/bitstring.hpp"

namespace mpch::fault {

/// Thrown when a snapshot cannot be parsed or fails its integrity checks.
class CheckpointError : public std::runtime_error {
 public:
  explicit CheckpointError(const std::string& what) : std::runtime_error(what) {}
};

struct Checkpoint {
  static constexpr std::uint64_t kVersion = 1;

  // Execution position and the config fingerprint it must be resumed under.
  std::uint64_t next_round = 0;
  std::uint64_t machines = 0;
  std::uint64_t local_memory_bits = 0;
  std::uint64_t query_budget = 0;
  std::uint64_t tape_seed = 0;

  // Per-machine memory M_i^{next_round}.
  std::vector<std::vector<mpc::Message>> inboxes;

  // Trace of rounds [0, next_round).
  std::vector<mpc::RoundStats> rounds;
  std::map<std::string, std::vector<std::uint64_t>> annotations;

  // Canonically ordered oracle transcript up to the boundary.
  std::vector<hash::QueryRecord> transcript;

  // LazyRandomOracle state: the memoised sub-function in sorted input order
  // plus the lifetime query counter. has_oracle=false for plain-model runs.
  bool has_oracle = false;
  std::uint64_t oracle_in_bits = 0;
  std::uint64_t oracle_out_bits = 0;
  std::uint64_t oracle_total_queries = 0;
  std::vector<std::pair<util::BitString, util::BitString>> oracle_memo;

  bool operator==(const Checkpoint&) const = default;
};

/// Capture a checkpoint from a live round barrier. `oracle` may be null
/// (plain-model execution). The transcript is snapshotted in canonical
/// order, so mid-run parallel logs serialise deterministically.
Checkpoint capture(const mpc::RoundSnapshot& snapshot, const mpc::MpcConfig& config,
                   const hash::LazyRandomOracle* oracle);

/// The before-round-0 checkpoint: the input partition itself. Lets recovery
/// policies roll all the way back to the start without a special case.
Checkpoint initial_checkpoint(const mpc::MpcConfig& config,
                              const std::vector<util::BitString>& initial_memory,
                              const hash::LazyRandomOracle* oracle);

/// Serialise to the versioned, checksummed wire format.
util::BitString serialize(const Checkpoint& cp);

/// Parse and integrity-check a serialised checkpoint. Throws CheckpointError
/// (bad magic / unsupported version / checksum mismatch / truncation) with a
/// diagnostic naming what failed.
Checkpoint deserialize(const util::BitString& bits);

/// Wrap arbitrary payload bits in a valid header (magic, version, length,
/// checksum). A fuzzing/testing hook: the checksum otherwise shields the
/// payload parser from any input a fuzzer can realistically produce, and the
/// parser is exactly the code that must survive hostile field counts.
util::BitString frame_checkpoint_payload(const util::BitString& payload);

/// File round-trip (write_bits_file framing). save overwrites; load throws
/// CheckpointError on a missing, truncated, or corrupted file.
void save_checkpoint_file(const std::string& path, const Checkpoint& cp);
Checkpoint load_checkpoint_file(const std::string& path);

/// Turn a checkpoint back into the two pieces a resumed execution needs:
/// the MpcResumeState for MpcSimulation::resume, and (when the checkpoint
/// has oracle state) `fresh_oracle` restored to the boundary. The oracle
/// must be a *fresh* instance built from the same seed as the original —
/// restore_table() re-derives every memo entry and throws if the snapshot
/// does not match the oracle, and the query counter is set to the
/// checkpoint's, erasing any queries a faulted round attempt wasted.
mpc::MpcResumeState make_resume_state(const Checkpoint& cp, hash::LazyRandomOracle* fresh_oracle);

}  // namespace mpch::fault
