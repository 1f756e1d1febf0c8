// oracle_transcript.hpp — query accounting and the proof's Q-sets.
//
// The lower-bound proof reasons entirely about *who queried what, when*:
// Q_i^{(k)} (queries of machine i in round k), Q^{(<=k)} (all queries up to
// round k), and their intersections with the correct-chain sets C^{(k)}.
// CountingOracle is the enforcement + recording decorator every simulated
// machine talks through; OracleTranscript is the queryable log.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <tuple>
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

/// The canonical order: strictly by (round, machine, seq).
inline bool canonical_less(const QueryRecord& a, const QueryRecord& b) {
  return std::tie(a.round, a.machine, a.seq) < std::tie(b.round, b.machine, b.seq);
}

/// Append-only log of queries across an entire MPC execution. Appends are
/// mutex-serialised so machines of a parallel round can share one log;
/// `sort_canonical()` restores the deterministic (round, machine, seq) order
/// after the interleaved appends. The log tracks whether every append kept
/// the keys strictly increasing, so a serially built log is never sorted.
class OracleTranscript {
 public:
  void record(std::uint64_t round, std::uint64_t machine, const util::BitString& input,
              const util::BitString& output, std::uint64_t seq = 0) {
    std::lock_guard<std::mutex> lock(mu_);
    records_.push_back({round, machine, seq, input, output});
    const std::size_t n = records_.size();
    if (canonical_ && n > 1 && !canonical_less(records_[n - 2], records_[n - 1])) {
      canonical_ = false;
    }
  }

  const std::vector<QueryRecord>& records() const { return records_; }
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return records_.size();
  }
  void clear() {
    std::lock_guard<std::mutex> lock(mu_);
    records_.clear();
    canonical_ = true;
  }

  /// True when the live log is known to be in strictly increasing
  /// (round, machine, seq) order, i.e. sorting it would change nothing.
  bool canonical() const {
    std::lock_guard<std::mutex> lock(mu_);
    return canonical_;
  }

  /// Sort records by (round, machine, seq) unless the log is already
  /// canonical (every serially built one is). The key is unique per record,
  /// so the result is a single deterministic order.
  void sort_canonical();

  /// A copy of the log in canonical (round, machine, seq) order, leaving the
  /// live log untouched. Checkpoints snapshot through this so a mid-run
  /// parallel log serialises in its deterministic order.
  std::vector<QueryRecord> canonical_records() const;

  /// Replace the log wholesale with `records` (a deserialised checkpoint's
  /// transcript); subsequent record() calls append after them.
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
  mutable std::mutex mu_;
  std::vector<QueryRecord> records_;
  bool canonical_ = true;  ///< records_ strictly increasing by canonical_less
};

/// Thrown when a machine exceeds its per-round query budget q.
class QueryBudgetExceeded : public std::runtime_error {
 public:
  explicit QueryBudgetExceeded(const std::string& what) : std::runtime_error(what) {}
};

/// Per-machine oracle view: enforces the per-round budget q of Definition 2.2
/// / Theorem 3.1 (q < 2^{n/4}) and records every query into the shared
/// transcript. The underlying oracle is shared by all machines (it is *the*
/// RO of the model).
///
/// Threading: each CountingOracle belongs to exactly one machine, and a
/// machine runs on one thread per round, so the budget counters need no
/// atomics — the budget check is race-free by ownership. The shared pieces
/// (inner oracle, transcript) are independently thread-safe; cross-round
/// visibility of the counters comes from the simulation's round barrier.
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
    if (transcript_) transcript_->record(round_, machine_id_, input, out, seq);
    return out;
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
  std::uint64_t round_ = 0;
  std::uint64_t used_this_round_ = 0;
  std::uint64_t total_ = 0;
};

}  // namespace mpch::hash
