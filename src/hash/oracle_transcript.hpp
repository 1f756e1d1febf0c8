// oracle_transcript.hpp — query accounting and the proof's Q-sets.
//
// The lower-bound proof reasons entirely about *who queried what, when*:
// Q_i^{(k)} (queries of machine i in round k), Q^{(<=k)} (all queries up to
// round k), and their intersections with the correct-chain sets C^{(k)}.
// CountingOracle is the enforcement + recording decorator every simulated
// machine talks through; it buffers its machine's records until the round
// barrier flushes them. OracleTranscript is the queryable log, in
// (round, machine, seq) order by construction.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "hash/random_oracle.hpp"
#include "util/bitstring.hpp"

namespace mpch::hash {

/// One logged oracle query. `seq` is the query's 0-based position within its
/// machine's round — (round, machine, seq) is a total order on records that
/// is independent of thread interleaving, which is what lets a parallel round
/// reproduce the serial transcript bit-for-bit (the compression codecs
/// consume transcripts and need a stable order to key their encodings on).
struct QueryRecord {
  std::uint64_t round = 0;
  std::uint64_t machine = 0;
  std::uint64_t seq = 0;
  util::BitString input;
  util::BitString output;

  bool operator==(const QueryRecord&) const = default;
};

/// Append-only log of queries across an entire MPC execution, always in
/// canonical (round, machine, seq) order: every append must carry a key
/// strictly greater than the last record's. The simulation keeps it that way
/// by construction — machines buffer their own round's records in their
/// CountingOracle and the barrier thread appends the buffers in machine
/// order — so the log takes no lock and is never sorted. Only one thread
/// writes it at a time.
class OracleTranscript {
 public:
  /// Append one record. Throws std::invalid_argument when its key is not
  /// strictly greater than the last record's.
  void record(std::uint64_t round, std::uint64_t machine, const util::BitString& input,
              const util::BitString& output, std::uint64_t seq = 0) {
    push({round, machine, seq, input, output});
  }

  /// Move every record of `batch` onto the end of the log, in order, under
  /// the same key rule, and leave `batch` empty with its capacity kept.
  void append(std::vector<QueryRecord>& batch);

  const std::vector<QueryRecord>& records() const { return records_; }
  std::size_t size() const { return records_.size(); }
  void clear() { records_.clear(); }

  /// Replace the log wholesale with `records` (a deserialised checkpoint's
  /// transcript); subsequent appends go after them. Throws
  /// std::invalid_argument, leaving the log unchanged, unless the keys are
  /// strictly increasing.
  void restore(std::vector<QueryRecord> records);

  /// Q_i^{(k)}: inputs queried by `machine` in round `round`.
  std::vector<util::BitString> queries_of(std::uint64_t machine, std::uint64_t round) const;

  /// Q^{(<=k)}: all inputs queried in rounds 0..round inclusive.
  std::vector<util::BitString> queries_up_to(std::uint64_t round) const;

  /// Count of log entries whose input appears in `targets` (multi-hits of the
  /// same target count once per distinct target — the proof's |Q ∩ C|).
  std::size_t intersect_count(const std::vector<util::BitString>& transcript_inputs,
                              const std::vector<util::BitString>& targets) const;

 private:
  void push(QueryRecord&& rec);

  std::vector<QueryRecord> records_;
};

/// Thrown when a machine exceeds its per-round query budget q.
class QueryBudgetExceeded : public std::runtime_error {
 public:
  explicit QueryBudgetExceeded(const std::string& what) : std::runtime_error(what) {}
};

/// Per-machine oracle view: enforces the per-round budget q of Definition 2.2
/// / Theorem 3.1 (q < 2^{n/4}) and records every query for the shared
/// transcript. The underlying oracle is shared by all machines (it is *the*
/// RO of the model).
///
/// Records wait in the view's own buffer until flush() moves them into the
/// transcript; the simulation flushes every machine's view at the round
/// barrier, in machine order. The buffer keeps its capacity across rounds.
///
/// Threading: each CountingOracle belongs to exactly one machine, and a
/// machine runs on one thread per round, so the budget counters and the
/// buffer need no atomics or lock — they are race-free by ownership. The
/// inner oracle is independently thread-safe; the transcript is written
/// only by flush(), on the barrier thread.
class CountingOracle final : public RandomOracle {
 public:
  CountingOracle(std::shared_ptr<RandomOracle> inner, std::uint64_t machine_id,
                 std::uint64_t per_round_budget,
                 std::shared_ptr<OracleTranscript> transcript)
      : inner_(std::move(inner)),
        machine_id_(machine_id),
        budget_(per_round_budget),
        transcript_(std::move(transcript)) {
    if (!inner_) throw std::invalid_argument("CountingOracle: null inner oracle");
  }

  /// Reset the per-round counter; the simulation calls this at round start.
  void begin_round(std::uint64_t round) {
    round_ = round;
    used_this_round_ = 0;
  }

  util::BitString query(const util::BitString& input) override {
    if (used_this_round_ >= budget_) {
      throw QueryBudgetExceeded("machine " + std::to_string(machine_id_) + " exceeded q=" +
                                std::to_string(budget_) + " queries in round " +
                                std::to_string(round_));
    }
    std::uint64_t seq = used_this_round_;
    ++used_this_round_;
    ++total_;
    util::BitString out = inner_->query(input);
    if (transcript_) pending_.push_back({round_, machine_id_, seq, input, out});
    return out;
  }

  /// Append the buffered records to the transcript, in query order.
  void flush() {
    if (transcript_) transcript_->append(pending_);
  }

  std::size_t input_bits() const override { return inner_->input_bits(); }
  std::size_t output_bits() const override { return inner_->output_bits(); }
  std::uint64_t total_queries() const override { return total_; }

  std::uint64_t queries_this_round() const { return used_this_round_; }
  std::uint64_t budget() const { return budget_; }
  std::uint64_t remaining_budget() const { return budget_ - used_this_round_; }

 private:
  std::shared_ptr<RandomOracle> inner_;
  std::uint64_t machine_id_;
  std::uint64_t budget_;
  std::shared_ptr<OracleTranscript> transcript_;
  std::vector<QueryRecord> pending_;  ///< records not yet flushed
  std::uint64_t round_ = 0;
  std::uint64_t used_this_round_ = 0;
  std::uint64_t total_ = 0;
};

}  // namespace mpch::hash
