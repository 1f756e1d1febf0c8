// wire.hpp — the framed message format of the byte-moving transport.
//
// The in-process backend hands Message objects across the round barrier by
// move; the socket backend moves *bytes*, and this file is the single
// definition of what those bytes look like. One frame carries one model
// message (or one coalesced broadcast, or a control token), with enough
// addressing — round, sender, per-sender sequence number, receiver —
// for the receiving side to rebuild the exact inbox order the in-process
// merge would have produced: messages sorted by (sender index, send order).
// That canonical order is what makes every backend bit-identical to the
// serial reference (tests/transport_conformance_test.cpp).
//
// This is a hostile-input boundary: socket frames arrive from another OS
// process, and a Byzantine deployment would let an adversary write them.
// Every decode failure is a typed WireError whose message names *which* gate
// rejected the frame (bad magic, unknown type, oversized length prefix,
// truncation, duplicated or reordered sequence number) and where — the same
// provenance discipline as the checkpoint codec. fuzz/fuzz_wire_frame.cpp
// drives the decoder and the inbox assembler directly; the corpus replay
// test keeps its findings enforced under the stock build.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "mpc/message.hpp"
#include "util/bitstring.hpp"

namespace mpch::transport {

/// A frame failed to decode or arrived out of protocol. The what() string
/// names the failing gate and its position in the byte stream.
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

/// Frame discriminator. Values are part of the wire format — append only.
enum class FrameType : std::uint8_t {
  kData = 1,       ///< one model message from one sender to one receiver
  kFlush = 2,      ///< round barrier: no more frames for this round
  kFlushDone = 3,  ///< router reply: the round's deliveries are all out
  kBroadcast = 4,  ///< one payload fanned out to a destination list
  kStageDone = 5,  ///< inter-router binomial-tree stage barrier token
};

/// First bytes of every frame; rejects cross-protocol and offset garbage.
inline constexpr std::uint32_t kWireMagic = 0x4643504D;  // "MPCF" little-endian

/// Hard ceiling on a frame's payload length prefix. A hostile 2^60-bit
/// length must be rejected *before* any allocation sized from it; 1 << 26
/// bits (8 MiB) is orders of magnitude above any s used in the tree.
inline constexpr std::uint64_t kDefaultMaxPayloadBits = 1ULL << 26;

/// Ceiling on a broadcast frame's destination count (machines are u64 but a
/// destination list longer than any plausible m is a hostile count).
inline constexpr std::uint64_t kMaxBroadcastFanout = 1ULL << 20;

/// Fixed-size part of the header: magic u32 | type u8 | round u64 | from u64
/// | seq u64 | to u64 | payload_bits u64.
inline constexpr std::size_t kFrameHeaderBytes = 4 + 1 + 8 * 5;

/// One decoded frame. For kData: one message `from` -> `to`, where `seq` is
/// the sender's per-round send counter (outbox order). For kBroadcast: the
/// same payload delivered to every entry of `fanout`, each with the seq the
/// matching per-destination kData frame would have carried. For control
/// frames (kFlush/kFlushDone/kStageDone) the payload is empty and `seq`
/// doubles as the stage index.
struct WireFrame {
  FrameType type = FrameType::kData;
  std::uint64_t round = 0;
  std::uint64_t from = 0;
  std::uint64_t seq = 0;
  std::uint64_t to = 0;
  util::BitString payload;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> fanout;  ///< (to, seq)

  bool operator==(const WireFrame&) const = default;
};

/// Serialise one frame to bytes (the exact layout decode_frame consumes).
std::vector<std::uint8_t> encode_frame(const WireFrame& frame);

/// Incremental frame decoder: feed() bytes in arbitrary chunks (socket reads
/// are not frame-aligned), next() yields completed frames. Throws WireError
/// the moment the buffered prefix is provably invalid — a bad magic or an
/// oversized length prefix is rejected without waiting for the rest of the
/// frame to arrive.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::uint64_t max_payload_bits = kDefaultMaxPayloadBits)
      : max_payload_bits_(max_payload_bits) {}

  void feed(const std::uint8_t* data, std::size_t size);
  std::optional<WireFrame> next();

  /// Bytes consumed from the stream so far (frame-boundary positions only —
  /// used by diagnostics to name where a rejection happened).
  std::uint64_t bytes_consumed() const { return bytes_consumed_; }
  /// Bytes buffered but not yet forming a complete frame.
  std::size_t pending_bytes() const { return buffer_.size(); }

 private:
  std::uint64_t max_payload_bits_;
  std::uint64_t bytes_consumed_ = 0;
  std::vector<std::uint8_t> buffer_;
};

/// Decode a self-contained byte buffer into frames. A trailing partial frame
/// is an error here ("truncated frame"), unlike the incremental decoder
/// which would keep waiting for more bytes. This is the entry point the
/// hostile-input tests and the fuzz harness drive.
std::vector<WireFrame> decode_frames(const std::vector<std::uint8_t>& bytes,
                                     std::uint64_t max_payload_bits = kDefaultMaxPayloadBits);

/// Mutation hooks for mpch-model's checker-soundness matrix (src/check/):
/// each disabled gate is a seeded protocol bug the model checker must find a
/// schedule exposing. Production assemblers always use the defaults.
struct InboxAssemblerOptions {
  /// Reject a seq equal to the sender's high-water mark. Off = the seeded
  /// "skip-dedup" mutation (a duplicated frame lands in the inbox twice).
  bool reject_duplicates = true;
  /// Reject a seq below the sender's high-water mark. Off = the seeded
  /// "drop-seq-check" mutation (a reordered frame lowers the high-water
  /// mark, letting a later re-delivery of an already-accepted seq pass the
  /// duplicate gate).
  bool reject_reordered = true;
};

/// Rebuilds one machine's next-round inbox from arriving data frames.
///
/// Stream transports deliver a destination's frames with per-sender seq
/// numbers strictly increasing (TCP/unix-stream ordering per sender, and
/// routers emit sorted batches). The assembler enforces exactly that: a seq
/// equal to one already accepted from the same sender is rejected as a
/// duplicated frame, a smaller one as a reordered frame — both with
/// machine/round/sender/seq provenance. take() returns the messages in the
/// canonical (sender, seq) order of the in-process merge.
class InboxAssembler {
 public:
  InboxAssembler(std::uint64_t machine, std::uint64_t round,
                 InboxAssemblerOptions options = {})
      : machine_(machine), round_(round), options_(options) {}

  /// Accept one delivery. `from`/`seq` follow WireFrame semantics.
  void add(std::uint64_t from, std::uint64_t seq, util::BitString payload);

  std::size_t size() const { return entries_.size(); }

  /// The merged inbox, sorted by (sender, seq). Resets the assembler.
  std::vector<mpc::Message> take();

 private:
  struct Entry {
    std::uint64_t from;
    std::uint64_t seq;
    util::BitString payload;
  };

  std::uint64_t machine_;
  std::uint64_t round_;
  InboxAssemblerOptions options_;
  std::map<std::uint64_t, std::uint64_t> last_seq_;  ///< per-sender high-water
  std::vector<Entry> entries_;
};

}  // namespace mpch::transport
