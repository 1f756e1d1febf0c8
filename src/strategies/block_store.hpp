// block_store.hpp — how MPC machines carry input blocks in messages.
//
// The model forces every bit of cross-round state through messages, so the
// strategies need a canonical wire format for "a set of tagged input blocks"
// and for the walk frontier. All strategy payloads are built from the two
// record types here:
//
//   BlockSet:  [count : 32][ (index : ell_bits)(x : u) ]*count
//   Frontier:  [i : index_bits][ell : ell_bits][r : u]
//
// The Line/SimLine strategies send each record as one message, tagged
// [tag:2][BlockSet] or [tag:2][Frontier]; this file is the one place that
// writes and reads those tags (block_shares, frontier_message,
// parse_line_inbox). Batch pointer-chasing frames its records with an
// instance id and parses them itself. Both decode block payloads through a
// per-machine BlockCache, since every machine re-reads its own unchanged
// blocks each round.
//
// Bit accounting is intentional: a machine holding σ blocks pays
// σ·(ell_bits + u) bits of its s-bit memory, which is the "a machine can
// only store a constant fraction of x_i's" mechanism of the lower bound.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/input.hpp"
#include "core/params.hpp"
#include "mpc/message.hpp"
#include "util/bitstring.hpp"
#include "util/serialize.hpp"

namespace mpch::strategies {

/// Payload tags of the Line/SimLine strategies' messages.
enum class PayloadTag : std::uint64_t { kBlocks = 0, kFrontier = 1 };
constexpr std::uint64_t kTagBits = 2;

/// An owned collection of (index, value) input blocks with wire (de)coding.
class BlockSet {
 public:
  explicit BlockSet(const core::LineParams& params) : params_(params) {}

  void add(std::uint64_t index, util::BitString value);
  bool contains(std::uint64_t index) const { return blocks_.count(index) != 0; }
  const util::BitString* find(std::uint64_t index) const;
  std::size_t size() const { return blocks_.size(); }

  /// Indices in ascending order.
  std::vector<std::uint64_t> indices() const;

  /// Serialise to the wire format above.
  util::BitString encode() const;

  /// Parse from the wire format. Throws on malformed input.
  static BlockSet decode(const core::LineParams& params, const util::BitString& bits);
  /// Parse one set at `reader`'s position and advance past it.
  static BlockSet read(const core::LineParams& params, util::BitReader& reader);

  /// Wire size of a set holding `count` blocks.
  static std::uint64_t encoded_bits(const core::LineParams& params, std::uint64_t count);

 private:
  core::LineParams params_;
  std::unordered_map<std::uint64_t, util::BitString> blocks_;
};

/// Per-machine memo of BlockSet parses. Definition 2.1 keeps no machine
/// state across rounds, so a Line strategy re-reads its own unchanged block
/// payload every round; this cache keeps one slot per (machine, record)
/// holding the last payload that machine parsed for that record and its
/// parse. A lookup is one full-payload equality compare; a miss decodes and
/// overwrites the slot, so memory is bounded by machines × records. It is a
/// pure function of the payload, not cross-round state: it only keeps long
/// simulations fast.
///
/// Race-free by ownership, like CountingOracle: only machine j's run_machine
/// touches machine j's slots, a machine runs on one thread per round, and
/// the pool's join orders the rounds. The slot array is sized at
/// construction and never resized, so no lookup takes a lock.
class BlockCache {
 public:
  BlockCache(std::uint64_t machines, std::uint64_t records_per_machine)
      : records_(records_per_machine), slots_(machines * records_per_machine) {}

  /// The parse of `payload`, record `record` of machine `machine`: the
  /// slot's own when it last held exactly these bits, else `decode()`'s
  /// (returning a BlockSet), which replaces it. Throws std::out_of_range
  /// for a machine or record outside the sizes given at construction.
  template <typename Decode>
  const BlockSet& parse(std::uint64_t machine, std::uint64_t record,
                        const util::BitString& payload, Decode&& decode) {
    Slot& slot = slots_[slot_index(machine, record)];
    if (!slot.blocks || slot.payload != payload) {
      BlockSet fresh = decode();
      slot.blocks.reset();  // a failed copy below must not leave a stale hit
      slot.payload = payload;
      slot.blocks.emplace(std::move(fresh));
    }
    return *slot.blocks;
  }

  /// The payload the slot last parsed (empty before its first parse).
  const util::BitString& payload(std::uint64_t machine, std::uint64_t record) const {
    return slots_[slot_index(machine, record)].payload;
  }

  std::size_t slots() const { return slots_.size(); }

 private:
  struct Slot {
    util::BitString payload;
    std::optional<BlockSet> blocks;
  };

  std::size_t slot_index(std::uint64_t machine, std::uint64_t record) const;

  std::uint64_t records_;
  std::vector<Slot> slots_;
};

/// The walk frontier: "we have evaluated the chain through node i-1 and the
/// next query is (i, x_ell, r)".
struct Frontier {
  std::uint64_t next_index = 1;  ///< i, in [1, w+1]; w+1 means finished
  std::uint64_t ell = 1;         ///< ℓ_i
  util::BitString r;             ///< r_i (u bits)

  /// The chain's start (i = 1, ℓ_1 = 1, r_1 = 0^u): public constants, so a
  /// machine can bootstrap the walk without communication.
  static Frontier start(const core::LineParams& params);

  util::BitString encode(const core::LineParams& params) const;
  static Frontier decode(const core::LineParams& params, const util::BitString& bits);
  /// Parse one frontier at `reader`'s position and advance past it.
  static Frontier read(const core::LineParams& params, util::BitReader& reader);
  static std::uint64_t encoded_bits(const core::LineParams& params);
};

/// Deterministic block-ownership plans shared by the strategies.
class OwnershipPlan {
 public:
  /// Partition: block i goes to machine (i-1) mod m (no replication).
  static OwnershipPlan round_robin(const core::LineParams& params, std::uint64_t machines);

  /// Contiguous windows of `window` blocks per machine, wrapping; used by the
  /// pipelined SimLine strategy. Machine j owns blocks in windows
  /// {j, j+m, j+2m, ...}.
  static OwnershipPlan windows(const core::LineParams& params, std::uint64_t machines,
                               std::uint64_t window);

  /// Replicated: every machine stores the first `per_machine` blocks it can
  /// fit, chosen by a rotation so coverage is spread: machine j owns blocks
  /// {(j·stride + t) mod v + 1 : t < per_machine}.
  static OwnershipPlan replicated(const core::LineParams& params, std::uint64_t machines,
                                  std::uint64_t per_machine);

  std::uint64_t machines() const { return owners_.size(); }

  /// Blocks owned by machine j (ascending indices in [1, v]).
  const std::vector<std::uint64_t>& owned_by(std::uint64_t machine) const {
    return owners_.at(machine);
  }

  /// Some machine owning block `index`. Throws std::logic_error if nobody
  /// does: a frontier handed to an uncovered block would be stranded.
  std::uint64_t owner_of(std::uint64_t index) const;

  /// Max blocks owned by any machine (for memory sizing).
  std::uint64_t max_owned() const;

  /// A machine attaining max_owned() — the witness machine ProtocolSpec
  /// memory envelopes name (lowest index wins ties).
  std::uint64_t heaviest_machine() const;

 private:
  std::vector<std::vector<std::uint64_t>> owners_;           // machine -> blocks
  std::unordered_map<std::uint64_t, std::uint64_t> lookup_;  // block -> some owner
};

/// Round-0 shares: machine j starts with one [kBlocks][BlockSet] message
/// holding the blocks `plan` gives it.
std::vector<util::BitString> block_shares(const core::LineParams& params, const OwnershipPlan& plan,
                                          const core::LineInput& input);

/// The [kFrontier][Frontier] message that hands the walk on.
util::BitString frontier_message(const core::LineParams& params, const Frontier& frontier);

/// The blocks of one [kBlocks][BlockSet] message. Throws
/// std::invalid_argument on any other tag.
BlockSet decode_blocks_message(const core::LineParams& params, const util::BitString& payload);

/// One round's inbox of a Line/SimLine strategy.
struct LineInbox {
  const BlockSet* blocks = nullptr;                 ///< null if no blocks arrived
  const util::BitString* blocks_payload = nullptr;  ///< their message, re-sent to self
  std::optional<Frontier> frontier;                 ///< furthest copy; first on a tie
};

/// Parse machine `machine`'s inbox of tagged messages; its block payload is
/// decoded through record 0 of its `cache` slots (`blocks` points into the
/// cache), and `blocks_payload` points into `inbox`. Broadcast strategies
/// receive several frontier copies, which differ only if one machine
/// advanced further, so the furthest is kept. Throws std::invalid_argument
/// on an unknown tag.
LineInbox parse_line_inbox(const core::LineParams& params, BlockCache& cache,
                           std::uint64_t machine, const std::vector<mpc::Message>& inbox);

}  // namespace mpch::strategies
