// arena.hpp — recycled buffers for the round loop's hot path.
//
// Every round of every run needs one inbox set (the outer vector of m
// per-machine inboxes) and retires another, and an mpch-serve sweep
// multiplies that by thousands of jobs. The RoundArena keeps released sets
// and hands their storage back to the next acquire. It recycles only the
// outer set: the per-machine message vectors cycle through the round loop
// and the transport instead (inbox -> next outbox -> spare bucket -> inbox,
// see MpcSimulation::run_rounds), so the inner vectors a set comes back
// with are usually empty.
//
// Determinism is untouched: the arena recycles *capacity* only — every
// acquired set comes back cleared and sized, and message contents are always
// written fresh by the round. It is deliberately not thread-safe: the round
// loop acquires/releases only on the barrier thread, and serve workers each
// own a private arena reused across the jobs they execute (never shared).
#pragma once

#include <cstdint>
#include <vector>

#include "mpc/message.hpp"

namespace mpch::mpc {

class RoundArena {
 public:
  using InboxSet = std::vector<std::vector<Message>>;

  /// An inbox set with `machines` empty per-machine vectors. Reuses the
  /// storage of a previously released set when one is available.
  InboxSet acquire(std::size_t machines) {
    if (free_sets_.empty()) {
      ++allocations_;
      return InboxSet(machines);
    }
    ++reuses_;
    InboxSet set = std::move(free_sets_.back());
    free_sets_.pop_back();
    for (auto& inbox : set) inbox.clear();
    set.resize(machines);
    return set;
  }

  /// Return a set's storage to the pool. Message payloads are released (they
  /// belong to the round that produced them); the per-machine vectors keep
  /// their capacity for the next acquire.
  void release(InboxSet&& set) { free_sets_.push_back(std::move(set)); }

  /// Drop all pooled storage (e.g. between differently-sized campaigns).
  void clear() { free_sets_.clear(); }

  std::uint64_t reuses() const { return reuses_; }
  std::uint64_t allocations() const { return allocations_; }
  std::size_t pooled_sets() const { return free_sets_.size(); }

 private:
  std::vector<InboxSet> free_sets_;
  std::uint64_t reuses_ = 0;
  std::uint64_t allocations_ = 0;
};

}  // namespace mpch::mpc
