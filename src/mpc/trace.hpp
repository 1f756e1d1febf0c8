// trace.hpp — per-round observability for MPC executions.
//
// Experiments read round counts, communication volume, query usage, and
// strategy-specific annotations (e.g. "nodes advanced this round") out of
// the trace. Annotations are observational only — they are recorded by
// algorithms for measurement and never fed back into the computation, so
// they do not smuggle state around the s-bit memory cap.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mpch::mpc {

/// A per-round maximum together with the machine that achieved it — the
/// witness the analysis layer's spec-soundness diagnostics name. Ties go to
/// the lowest machine index, so the named witness is a function of the
/// observed values alone, not of observation order (serial sweeps, parallel
/// merges, and checkpoint-resumed replays all name the same machine).
struct Peak {
  std::uint64_t value = 0;
  std::uint64_t machine = 0;

  void observe(std::uint64_t v, std::uint64_t m) {
    if (v > value || (v == value && m < machine)) {
      value = v;
      machine = m;
    }
  }
  void merge(const Peak& rhs) { observe(rhs.value, rhs.machine); }

  bool operator==(const Peak&) const = default;
};

struct RoundStats {
  std::uint64_t round = 0;
  std::uint64_t messages = 0;
  std::uint64_t communicated_bits = 0;
  std::uint64_t oracle_queries = 0;
  std::uint64_t max_inbox_bits = 0;  ///< largest per-machine delivery this round

  // Per-machine worst cases observed this round, recorded by the simulation
  // during the deterministic merge. These are what the spec-soundness pass
  // (analysis/spec_soundness.hpp) compares against a declared ProtocolSpec.
  Peak peak_memory_bits;   ///< largest round-start memory (inbox union)
  Peak peak_queries;       ///< most oracle queries by one machine
  Peak peak_fan_out;       ///< most messages sent by one machine
  Peak peak_fan_in;        ///< most messages delivered to one machine
  Peak peak_sent_bits;     ///< most bits sent by one machine
  Peak peak_recv_bits;     ///< most bits delivered to one machine
  Peak peak_message_bits;  ///< largest single message payload

  bool operator==(const RoundStats&) const = default;
};

class RoundTrace {
 public:
  void begin_round(std::uint64_t round) {
    stats_.push_back({});
    stats_.back().round = round;
  }

  /// Start a per-machine scratch trace over for `round`: one fresh
  /// RoundStats, and every annotation key kept with its values cleared. A
  /// scratch reused this way across rounds keeps its stats slot, map nodes
  /// and vector capacity, so a steady-state round allocates nothing here.
  void reset_scratch(std::uint64_t round) {
    stats_.resize(1);
    stats_.front() = RoundStats{};
    stats_.front().round = round;
    for (auto& entry : annotations_) entry.second.clear();
  }

  RoundStats& current() { return stats_.back(); }
  const std::vector<RoundStats>& rounds() const { return stats_; }

  /// Strategy-defined counters, e.g. "advance" -> nodes walked per round.
  void annotate(const std::string& key, std::uint64_t value) {
    annotations_[key].push_back(value);
  }

  const std::vector<std::uint64_t>& annotation(const std::string& key) const {
    static const std::vector<std::uint64_t> kEmpty;
    auto it = annotations_.find(key);
    return it == annotations_.end() ? kEmpty : it->second;
  }

  const std::map<std::string, std::vector<std::uint64_t>>& annotations() const {
    return annotations_;
  }

  /// Fold one machine's per-round scratch trace into this trace: annotation
  /// values append in the scratch's order, stats sum (max for inbox peaks).
  /// The simulation calls this once per machine, in machine index order,
  /// after the round barrier — so a parallel round accumulates exactly the
  /// sequence a serial round would have produced, regardless of which worker
  /// ran which machine. Keys the scratch kept from earlier rounds but got no
  /// value for this round are skipped, so the merged map holds exactly the
  /// keys some machine annotated.
  void merge_round_from(const RoundTrace& scratch) {
    for (const auto& [key, values] : scratch.annotations_) {
      if (values.empty()) continue;
      auto& dst = annotations_[key];
      dst.insert(dst.end(), values.begin(), values.end());
    }
    if (scratch.stats_.empty() || stats_.empty()) return;
    const RoundStats& s = scratch.stats_.back();
    RoundStats& dst = stats_.back();
    dst.messages += s.messages;
    dst.communicated_bits += s.communicated_bits;
    dst.oracle_queries += s.oracle_queries;
    dst.max_inbox_bits = std::max(dst.max_inbox_bits, s.max_inbox_bits);
    dst.peak_memory_bits.merge(s.peak_memory_bits);
    dst.peak_queries.merge(s.peak_queries);
    dst.peak_fan_out.merge(s.peak_fan_out);
    dst.peak_fan_in.merge(s.peak_fan_in);
    dst.peak_sent_bits.merge(s.peak_sent_bits);
    dst.peak_recv_bits.merge(s.peak_recv_bits);
    dst.peak_message_bits.merge(s.peak_message_bits);
  }

  std::uint64_t total_communicated_bits() const {
    std::uint64_t total = 0;
    for (const auto& r : stats_) total += r.communicated_bits;
    return total;
  }

  std::uint64_t total_oracle_queries() const {
    std::uint64_t total = 0;
    for (const auto& r : stats_) total += r.oracle_queries;
    return total;
  }

  /// Replace the whole trace with deserialised checkpoint state; later
  /// begin_round/merge_round_from calls continue after the restored rounds.
  void restore(std::vector<RoundStats> stats,
               std::map<std::string, std::vector<std::uint64_t>> annotations) {
    stats_ = std::move(stats);
    annotations_ = std::move(annotations);
  }

 private:
  std::vector<RoundStats> stats_;
  std::map<std::string, std::vector<std::uint64_t>> annotations_;
};

}  // namespace mpch::mpc
