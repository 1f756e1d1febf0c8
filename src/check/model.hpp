// model.hpp — the interface between protocol models and the explorer.
//
// mpch-model is a Loom/CHESS-style systematic checker: a Model wraps one of
// the repo's *real* protocol transition cores (transport/wire.hpp's
// InboxAssembler, fault/recovery_core.hpp's restart and quarantine
// policies) behind a small adversary-facing surface — "which
// deliveries/faults could happen next" and "apply this one". The explorer (explorer.hpp) enumerates every schedule of
// those actions within configured bounds, so the protocol code is executed
// under *all* bounded interleavings, not the one the OS scheduler happened
// to produce.
//
// Contract:
//   * reset() returns the model to its initial state; apply() must be a
//     deterministic function of the action sequence since reset — the
//     explorer backtracks by reset-and-replay, and traces replay by key.
//   * enabled() is deterministic and ordered; an Action's key is stable for
//     "the same choice" across replays (keys are what trace files store).
//   * violation() reports an invariant breach in the *current* state; the
//     explorer checks it after every apply. Defensive rejections by the real
//     code (a typed WireError on a duplicate frame) are not violations —
//     they are the protocol working — and models surface them as reaching a
//     rejected terminal state instead.
//   * fingerprint() hashes the canonical state: two states with equal
//     fingerprints must be indistinguishable to every later enabled()/
//     apply()/violation(). It drives convergence pruning and livelock
//     detection, so under-hashing hides bugs and over-hashing only costs
//     time.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace mpch::check {

/// One adversary choice at one state: deliver this frame, duplicate that
/// one, hand the policy this verdict. `key` identifies the choice across
/// replays of the same prefix; `label` is for humans and trace files.
struct Action {
  std::uint64_t key = 0;
  std::string label;

  bool operator==(const Action&) const = default;
};

/// Exploration bounds, parsed from the CLI's `--bound k=v,...`. Models read
/// the fields they understand; the explorer enforces depth/states itself.
struct ModelBounds {
  std::uint64_t machines = 2;   ///< machines (senders)
  std::uint64_t rounds = 2;     ///< protocol rounds to drive
  std::uint64_t messages = 2;   ///< per-sender messages per round
  std::uint64_t faults = 1;     ///< adversary budget (dups, faults, verdicts)
  std::uint64_t depth = 64;     ///< schedule length ceiling
  std::uint64_t states = 100000;  ///< explored-state ceiling
};

/// Parse `--bound`'s "machines=2,rounds=3,..." over the defaults. Values are
/// unsigned decimals (util/parse.hpp) and each key appears at most once;
/// throws std::invalid_argument naming the offending item.
ModelBounds parse_bounds(std::string_view text);

/// Every bound as "machines=M,rounds=R,...,states=S"; parse_bounds reads it back.
std::string bounds_summary(const ModelBounds& bounds);

/// A protocol model the explorer can drive. Implementations live in
/// src/check/*_model.cpp and are built by make_model() (models.hpp).
class Model {
 public:
  virtual ~Model() = default;

  /// The protocol name ("inbox", "recovery", "quarantine").
  virtual std::string name() const = 0;

  /// Return to the initial state. Called before every (re)exploration and
  /// every replay.
  virtual void reset() = 0;

  /// The adversary's choices in the current state, in a deterministic
  /// order. Empty means the schedule is complete (a terminal state).
  virtual std::vector<Action> enabled() const = 0;

  /// Apply one choice by key. The key must come from the current enabled()
  /// set; models throw std::logic_error otherwise (the explorer only feeds
  /// enabled keys, so a throw here is a replay divergence).
  virtual void apply(std::uint64_t key) = 0;

  /// An invariant breach in the current state, or nullopt. Checked by the
  /// explorer after every apply().
  virtual std::optional<std::string> violation() const = 0;

  /// Canonical state hash (see file comment for the contract).
  virtual std::uint64_t fingerprint() const = 0;

  /// True when two actions commute from the current state: applying them in
  /// either order reaches the same state. Drives the explorer's sleep-set
  /// pruning; the conservative default prunes nothing.
  virtual bool independent(const Action&, const Action&) const { return false; }

  /// Confluence hooks. Terminal states fall in three classes: completed
  /// schedules whose protocol-visible outcome must not depend on the
  /// schedule (comparable — the transport's determinism claim), defensive
  /// aborts where the real code rejected hostile input with a typed error
  /// (not comparable: which gate fired depends on the order, and that is
  /// fine), and adversary-shaped outcomes like a quarantine run whose strike
  /// counts follow the verdicts chosen (never comparable). The outcome
  /// fingerprint hashes only what the protocol's user can observe — the
  /// delivered inboxes, the committed transcript — while fingerprint()
  /// additionally hashes exploration bookkeeping (budgets spent) that may
  /// legitimately differ between equal outcomes.
  virtual bool terminal_comparable() const { return true; }
  virtual std::uint64_t outcome_fingerprint() const { return fingerprint(); }
};

/// FNV-1a accumulator — the fingerprint hash every model uses, kept in one
/// place so state hashing stays word-RAM-simple and platform-independent.
class Fingerprint {
 public:
  Fingerprint& mix(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
    return *this;
  }
  Fingerprint& mix(const std::string& s) {
    mix(s.size());
    for (unsigned char c : s) {
      hash_ ^= c;
      hash_ *= 0x100000001b3ULL;
    }
    return *this;
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace mpch::check
