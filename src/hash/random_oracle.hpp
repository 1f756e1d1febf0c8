// random_oracle.hpp — the oracle substrate of the paper (Definition 2.2).
//
// The paper's RO : {0,1}^n -> {0,1}^n is a uniformly random function all
// parties can query. We provide three implementations behind one interface:
//
//  * LazyRandomOracle     — the "true" RO for simulations: answers are
//                           derived per-input from a *secret* seed through a
//                           counter-mode SHA-256 PRF (one compression when
//                           the prefix fits a block), so they are
//                           (a) order-independent (two strategies querying in
//                           different orders see the same function — required
//                           when comparing algorithms on one (RO, X) pair),
//                           (b) reproducible from the seed, and
//                           (c) indistinguishable-from-random to strategies
//                           that do not know the seed. Touched entries are
//                           memoised in one flat locked table so
//                           transcripts/serialisation can see exactly the
//                           queried sub-function.
//  * ExhaustiveRandomOracle — a genuinely i.i.d.-uniform table over the full
//                           domain, for tiny n (<= 22). Used by the
//                           compression argument's self-contained round-trip
//                           mode, where "add the entire RO to the encoding"
//                           is executed literally.
//  * Sha256Oracle         — the random-oracle-methodology instantiation:
//                           RO(x) := SHA-256-CTR(x) with *no* secret, i.e. a
//                           public hash function h. Experiment E9 compares
//                           behaviour under LazyRandomOracle vs Sha256Oracle.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "hash/sha256.hpp"
#include "util/bitstring.hpp"
#include "util/rng.hpp"

namespace mpch::hash {

struct QueryRecord;  // hash/oracle_transcript.hpp

/// Abstract random oracle RO : {0,1}^in_bits -> {0,1}^out_bits.
class RandomOracle {
 public:
  virtual ~RandomOracle() = default;

  /// Query the oracle. `input.size()` must equal input_bits().
  virtual util::BitString query(const util::BitString& input) = 0;

  virtual std::size_t input_bits() const = 0;
  virtual std::size_t output_bits() const = 0;

  /// Total queries answered (including repeats) over the oracle's lifetime.
  virtual std::uint64_t total_queries() const = 0;

 protected:
  void check_input(const util::BitString& input) const;
};

/// Cross-oracle memo of one oracle *family* (in_bits, out_bits, seed): the
/// derived answers of every input any attached oracle has ever queried.
/// Oracles of one family that attach it pay each distinct sub-query's SHA-256
/// derivation once per process instead of once per oracle. mpch-serve no
/// longer attaches one (the locked lookup and publish cost more than they
/// save); the class stays only because the benchmark under perfbench/ does.
///
/// Determinism is preserved by construction: the memo only ever stores
/// derive(seed, input), a pure function, and attaching it never changes an
/// oracle's observable state (touched_table, total_queries, counters) — it
/// only short-circuits re-derivation. The family key is checked at attach
/// time so a memo can never leak answers across domains or seeds.
///
/// Thread-safe: sharded behind per-shard mutexes (concurrent workers hit it
/// from independent jobs), hit/miss counters are atomic.
class SharedOracleMemo {
 public:
  SharedOracleMemo(std::size_t in_bits, std::size_t out_bits, std::uint64_t seed);

  std::size_t input_bits() const { return in_bits_; }
  std::size_t output_bits() const { return out_bits_; }
  std::uint64_t seed() const { return seed_; }

  /// Fetch the memoised answer for `input`; returns false (and leaves *out
  /// untouched) when the family has not derived it yet.
  bool lookup(const util::BitString& input, util::BitString* out) const;

  /// Record a derived answer. Idempotent — racing publishers of the same
  /// pure value leave the table unchanged either way.
  void publish(const util::BitString& input, const util::BitString& value);

  std::size_t entries() const;
  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }

 private:
  static constexpr std::size_t kShards = 16;

  struct Shard {
    mutable std::mutex mu;
    // Point lookups only; nothing observable ever iterates this table (each
    // oracle's own memo is the serialisation/transcript surface).
    std::unordered_map<util::BitString, util::BitString,  // lint:ordered-exempt
                       util::BitStringHash> table;
  };

  std::size_t in_bits_;
  std::size_t out_bits_;
  std::uint64_t seed_;
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  std::array<Shard, kShards> shards_;
};

/// Secret-seeded PRF oracle; see file comment. The default RO for all
/// strategy and round-complexity experiments.
///
/// Thread-safe: the memo is one table behind one mutex (entries in
/// insertion order plus an open-addressing index over them, probed with one
/// util::key_hash per query) and the query counter is atomic, so all
/// machines of a parallel MPC round can hit the one shared RO concurrently.
/// A miss derives outside the lock and the first insert wins. Because
/// `derive` is a pure function of (seed, input), the materialised
/// sub-function is independent of thread interleaving — `touched_table()`
/// after a parallel run is bit-identical to a serial replay of the same
/// query multiset.
class LazyRandomOracle final : public RandomOracle {
 public:
  LazyRandomOracle(std::size_t in_bits, std::size_t out_bits, std::uint64_t seed);

  util::BitString query(const util::BitString& input) override;
  std::size_t input_bits() const override { return in_bits_; }
  std::size_t output_bits() const override { return out_bits_; }
  std::uint64_t total_queries() const override {
    return total_queries_.load(std::memory_order_relaxed);
  }

  /// Number of distinct inputs seen so far (the lazily-materialised table).
  std::size_t touched_entries() const;

  /// The materialised sub-function, ordered by input, for serialisation and
  /// for the compression argument's by-reference oracle part.
  std::vector<std::pair<util::BitString, util::BitString>> touched_table() const;

  /// Rebuild the materialised sub-function from a query transcript (e.g. a
  /// checkpoint's, its only record of the oracle) and set the lifetime query
  /// counter to the record count, so a fresh oracle constructed from the
  /// same seed resumes exactly where the recorded one stopped. Each distinct
  /// input is re-derived from the seed once and every record carrying it
  /// must match; a mismatch (wrong seed, a tampered snapshot, or two records
  /// giving one input different answers) throws std::invalid_argument
  /// instead of silently installing a different function.
  void restore_table(const std::vector<QueryRecord>& records);

  /// Chaos-testing hook: XOR-flip bit `bit_index % output_bits()` of the
  /// `entry_index`-th memoised answer (sorted input order, the same order
  /// touched_table() reports). After this, the oracle silently answers the
  /// corrupted value for that input — a Byzantine value fault inside the
  /// oracle layer. Returns false (no-op) when the memo has no such entry.
  bool corrupt_memo_entry(std::size_t entry_index, std::size_t bit_index = 0);

  /// Integrity audit: re-derive every memoised answer from the seed and
  /// return the inputs whose stored answer no longer matches (empty = memo
  /// intact). The detection dual of corrupt_memo_entry, used by the chaos
  /// CLI's unprotected-baseline audit.
  std::vector<util::BitString> verify_memo() const;

  /// Share derivations with other oracles of the same family: on a local
  /// memo miss, consult `memo` before running SHA-256, and publish any
  /// answer this oracle does derive. Passing null detaches. Observable
  /// state is unaffected (see SharedOracleMemo); corrupt_memo_entry flips
  /// stay local and are never published. Throws std::invalid_argument when
  /// the memo's (in_bits, out_bits, seed) does not match this oracle's.
  void attach_shared_memo(std::shared_ptr<SharedOracleMemo> memo);

 private:
  struct Entry {
    util::BitString input;
    util::BitString output;
  };

  util::BitString derive(const util::BitString& input) const;
  // The entry for `input`, whose util::key_hash is `hash`, or null. The
  // *_locked members require mu_.
  Entry* find_locked(const util::BitString& input, std::uint64_t hash);
  // Append an entry for an input find_locked() did not find.
  Entry& insert_locked(const util::BitString& input, std::uint64_t hash, util::BitString output);
  // The first empty index slot on `hash`'s probe sequence.
  std::size_t free_slot_locked(std::uint64_t hash) const;

  std::size_t in_bits_;
  std::size_t out_bits_;
  std::uint64_t seed_;
  std::atomic<std::uint64_t> total_queries_{0};
  mutable std::mutex mu_;
  // Point lookups go through index_, a power-of-two linear-probing table at
  // most half full whose slots hold an entries_ position + 1 (0 = empty).
  // Nothing observable iterates entries_ unsorted: touched_table() sorts.
  std::vector<Entry> entries_;
  std::vector<std::uint32_t> index_;
  std::shared_ptr<SharedOracleMemo> shared_memo_;
};

/// Fully materialised uniform table over {0,1}^in_bits. in_bits <= 22.
class ExhaustiveRandomOracle final : public RandomOracle {
 public:
  ExhaustiveRandomOracle(std::size_t in_bits, std::size_t out_bits, util::Rng& rng);

  // Copyable (the compression codecs clone scratch oracles); the atomic
  // counter needs explicit copy operations.
  ExhaustiveRandomOracle(const ExhaustiveRandomOracle& rhs)
      : in_bits_(rhs.in_bits_),
        out_bits_(rhs.out_bits_),
        total_queries_(rhs.total_queries()),
        table_(rhs.table_) {}
  ExhaustiveRandomOracle& operator=(const ExhaustiveRandomOracle& rhs) {
    in_bits_ = rhs.in_bits_;
    out_bits_ = rhs.out_bits_;
    total_queries_.store(rhs.total_queries(), std::memory_order_relaxed);
    table_ = rhs.table_;
    return *this;
  }

  util::BitString query(const util::BitString& input) override;
  std::size_t input_bits() const override { return in_bits_; }
  std::size_t output_bits() const override { return out_bits_; }
  std::uint64_t total_queries() const override {
    return total_queries_.load(std::memory_order_relaxed);
  }

  /// Direct table access (index = input value, MSB-first). Mutable so the
  /// compression decoder can reconstruct an oracle from an encoding and so
  /// Definition 3.4's rewired oracle RO^{(k)}_{a_1..a_p} can be materialised.
  const std::vector<util::BitString>& table() const { return table_; }
  void set_entry(std::uint64_t index, util::BitString value);

  /// Bit-size of the full table: out_bits * 2^in_bits — the paper's n·2^n
  /// term in every encoding-length bound.
  std::uint64_t table_bits() const;

  bool operator==(const ExhaustiveRandomOracle& rhs) const {
    return in_bits_ == rhs.in_bits_ && out_bits_ == rhs.out_bits_ && table_ == rhs.table_;
  }

 private:
  std::size_t in_bits_;
  std::size_t out_bits_;
  std::atomic<std::uint64_t> total_queries_{0};
  std::vector<util::BitString> table_;
};

/// Public-hash instantiation h(x) = SHA-256-CTR(x): the random oracle
/// methodology step of Section 1 ("replace the random oracle by a good
/// cryptographic hashing function").
class Sha256Oracle final : public RandomOracle {
 public:
  Sha256Oracle(std::size_t in_bits, std::size_t out_bits);

  util::BitString query(const util::BitString& input) override;
  std::size_t input_bits() const override { return in_bits_; }
  std::size_t output_bits() const override { return out_bits_; }
  std::uint64_t total_queries() const override {
    return total_queries_.load(std::memory_order_relaxed);
  }

 private:
  std::size_t in_bits_;
  std::size_t out_bits_;
  std::atomic<std::uint64_t> total_queries_{0};
};

/// Expand (domain-separated) SHA-256 output to an arbitrary number of bits by
/// counter mode: out = SHA(prefix||0) || SHA(prefix||1) || ... truncated.
/// The counter is 4 bytes, big-endian.
util::BitString sha256_expand(const std::vector<std::uint8_t>& prefix, std::size_t out_bits);

/// The same expansion over a prefix already fed to `prefix` with update():
/// callers hash their domain header and payload in place instead of
/// concatenating them into one buffer first.
util::BitString sha256_expand(const Sha256& prefix, std::size_t out_bits);

/// The first 64 bits of sha256_expand(prefix, 64), MSB-first, as an integer.
std::uint64_t sha256_expand_u64(const Sha256& prefix);

/// sha256_expand_u64 over head || the first `body_bits` bits of `body`
/// (packed MSB-first; when they end mid-byte, the rest of that byte is
/// hashed as zeros): the first 8 bytes of SHA-256(head || body bytes ||
/// 4 zero counter bytes). The head block and the padded tail are built on
/// the stack and whole blocks in between are compressed straight from
/// `body`; a message of up to two padded blocks is one compress call.
/// Throws std::invalid_argument unless head.size() < 64. `body` may be
/// null when body_bits is 0.
std::uint64_t sha256_expand_u64(std::span<const std::uint8_t> head, const std::uint8_t* body,
                                std::size_t body_bits);

/// Write `v` as 8 little-endian bytes, the layout of every integer field in
/// the tree's domain-separated hash prefixes.
inline void store_le64(std::uint8_t* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<std::uint8_t>(v >> (i * 8));
}

}  // namespace mpch::hash
