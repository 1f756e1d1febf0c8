// bitstring.hpp — arbitrary-length bit vectors with slicing and packing.
//
// The paper manipulates objects measured in *bits*: inputs x_i of u bits,
// oracle domain/range of n bits, memory states of s bits. BitString is the
// common currency for all of them. Bits are indexed MSB-first within the
// logical string (bit 0 is the leftmost / most significant), which matches
// the paper's "parse the input as v strings of u bits" convention.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstddef>
#include <cstring>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace mpch::util {

/// Read-only view of a BitString's packed bytes. It converts to a
/// std::vector for callers that keep a copy, and compares equal to any
/// contiguous byte range with the same contents.
class ByteView : public std::span<const std::uint8_t> {
 public:
  using std::span<const std::uint8_t>::span;

  operator std::vector<std::uint8_t>() const { return {begin(), end()}; }

  friend bool operator==(ByteView a, ByteView b) { return std::ranges::equal(a, b); }
};

/// A dynamically sized string of bits.
///
/// Storage is byte-packed, MSB-first, with the final byte's unused low bits
/// kept zero. Strings of up to 128 bits live inside the object; longer ones
/// move to a heap buffer that grows as a std::vector would. Multi-bit
/// operations (get_uint, set_uint, slice, splice, +, +=) move up to 64 bits
/// per step with shift/mask over the packed bytes.
///
/// Range contract: every accessor checks its range once per call and throws
/// in all build types — std::out_of_range when [pos, pos+len) leaves the
/// string (including when pos+len wraps around SIZE_MAX), and
/// std::invalid_argument when a uint width exceeds 64 (checked first). A
/// zero-length range at pos == size() is valid.
///
/// Equality, hashing, and lexicographic comparison treat the value as the
/// exact bit sequence (two BitStrings of different length are never equal
/// even if one is a zero-padded version of the other).
class BitString {
 public:
  /// Bytes held inside the object: every n = 64 oracle input and answer,
  /// and short round messages, never touch the heap.
  static constexpr std::size_t kInlineBytes = 16;

  // Copy, move and destruction are inline: oracle answers, memo entries and
  // messages are copied and moved on every query and every round.
  BitString() = default;
  BitString(const BitString& rhs) { *this = rhs; }
  BitString(BitString&& rhs) noexcept { *this = std::move(rhs); }
  BitString& operator=(const BitString& rhs) {
    if (this == &rhs) return *this;
    if (is_inline() && rhs.byte_size() <= kInlineBytes) {
      // A fixed-size copy: every buffer, inline or heap, holds at least
      // kInlineBytes bytes.
      std::memcpy(inline_, rhs.data_, kInlineBytes);
      nbits_ = rhs.nbits_;
      return *this;
    }
    return assign_heap(rhs);
  }
  /// Leaves `rhs` empty (unless it is *this, which keeps its value).
  BitString& operator=(BitString&& rhs) noexcept {
    if (this == &rhs) return *this;
    if (rhs.is_inline()) {
      // Inline bytes are copied; a heap buffer of ours is kept for reuse.
      std::memcpy(data_, rhs.inline_, kInlineBytes);
    } else {
      release();
      data_ = rhs.data_;
      capacity_ = rhs.capacity_;
      rhs.data_ = rhs.inline_;
    }
    nbits_ = rhs.nbits_;
    rhs.nbits_ = 0;
    return *this;
  }
  ~BitString() { release(); }

  /// An all-zero string of `nbits` bits.
  explicit BitString(std::size_t nbits) {
    // The inline bytes start out zero: a short string needs nothing more.
    if (nbits > 8 * kInlineBytes) {
      grow(nbits);
    } else {
      nbits_ = nbits;
    }
  }

  /// The low `nbits` bits of `value`, MSB-first. Requires nbits <= 64.
  static BitString from_uint(std::uint64_t value, std::size_t nbits);

  /// Parse a string of '0'/'1' characters.
  static BitString from_binary_string(const std::string& bits);

  /// Copy a full byte buffer (length = 8 * bytes.size() bits).
  static BitString from_bytes(ByteView bytes);

  /// An `nbits`-bit string whose packed bytes are written by
  /// `fill(std::uint8_t* data, std::size_t nbytes)`, starting from zeros;
  /// bits past `nbits` in the final byte are cleared afterwards.
  template <typename Fill>
  static BitString with_bytes(std::size_t nbits, Fill&& fill) {
    BitString out(nbits);
    fill(out.data_, out.byte_size());
    out.clear_tail_slack();
    return out;
  }

  /// A uniformly random string of `nbits` bits drawn from `next_u64`,
  /// a callable returning fresh 64-bit words.
  template <typename NextU64>
  static BitString random(std::size_t nbits, NextU64&& next_u64) {
    BitString out(nbits);
    std::size_t full_words = nbits / 64;
    std::size_t pos = 0;
    for (std::size_t i = 0; i < full_words; ++i, pos += 64) {
      out.set_uint(pos, 64, next_u64());
    }
    if (std::size_t rem = nbits % 64; rem != 0) {
      out.set_uint(pos, rem, next_u64() & ((rem == 64) ? ~0ULL : ((1ULL << rem) - 1)));
    }
    return out;
  }

  std::size_t size() const { return nbits_; }
  bool empty() const { return nbits_ == 0; }

  bool get(std::size_t i) const;
  void set(std::size_t i, bool v);

  /// Read `len` bits starting at `pos` as an unsigned integer (len <= 64).
  std::uint64_t get_uint(std::size_t pos, std::size_t len) const;

  /// Write the low `len` bits of `value` at `pos` (len <= 64).
  void set_uint(std::size_t pos, std::size_t len, std::uint64_t value);

  /// Copy of bits [pos, pos+len).
  BitString slice(std::size_t pos, std::size_t len) const;

  /// Overwrite bits [pos, pos+other.size()) with `other` (which may be
  /// *this, making the only in-range call, pos == 0, a no-op).
  void splice(std::size_t pos, const BitString& other);

  /// Concatenation. `x += x` doubles x.
  BitString operator+(const BitString& rhs) const;
  BitString& operator+=(const BitString& rhs);

  /// Append `len` zero bits (the paper's `0*` padding).
  void pad_zeros(std::size_t len);

  /// Truncate to the first `len` bits. Requires len <= size().
  void truncate(std::size_t len);

  /// Bitwise XOR; both operands must have equal length.
  BitString operator^(const BitString& rhs) const;

  bool operator==(const BitString& rhs) const;
  bool operator!=(const BitString& rhs) const { return !(*this == rhs); }
  /// Lexicographic by (length, bits) so BitString can key ordered maps.
  bool operator<(const BitString& rhs) const;

  /// Number of set bits.
  std::size_t popcount() const;

  /// '0'/'1' rendering, MSB first.
  std::string to_binary_string() const;
  /// Hex rendering (bit length padded up to a nibble boundary for display).
  std::string to_hex_string() const;

  /// Stable 64-bit hash of (length, contents) — used for hash maps keyed by
  /// oracle inputs and for cheap fingerprinting in tests.
  std::uint64_t hash() const;

  /// Underlying packed bytes; the final byte's unused low bits are zero.
  /// The view is valid until the string is next modified or destroyed.
  ByteView bytes() const { return {data_, byte_size()}; }

 private:
  // BitWriter (serialize.hpp) streams whole words straight into the buffer.
  friend class BitWriter;

  std::size_t byte_size() const { return (nbits_ + 7) / 8; }
  bool is_inline() const { return data_ == inline_; }
  std::size_t capacity() const { return is_inline() ? kInlineBytes : capacity_; }
  // Make room for `nbytes` bytes, keeping the first byte_size() of them.
  void reserve(std::size_t nbytes);
  // Grow to `nbits` bits; the bytes added read zero.
  void grow(std::size_t nbits);
  // Copy assignment when the source does not fit the inline buffer.
  BitString& assign_heap(const BitString& rhs);
  void release() {
    if (!is_inline()) delete[] data_;
  }
  void check_range(std::size_t pos, std::size_t len) const;
  // Invariant: bits beyond nbits_ in the final byte are zero; this makes
  // operator== and hash() well-defined on the byte buffer. Bytes past
  // byte_size() hold no meaning; growth zeroes them before use.
  void clear_tail_slack();

  // data_ points at inline_ or at a heap buffer of capacity_ bytes, so
  // reading a byte never branches on where the string lives. A heap buffer
  // is always larger than kInlineBytes.
  std::uint8_t* data_ = inline_;
  std::size_t nbits_ = 0;
  union {
    std::uint8_t inline_[kInlineBytes] = {};
    std::size_t capacity_;
  };
};

// Pointer, length and a 16-byte union: no larger than the std::vector plus
// length it replaced, so memo and transcript entries do not grow.
static_assert(sizeof(BitString) == 32, "BitString layout: data pointer, bit length, 16-byte union");
// 128 bits inline: every n = 64 oracle input and answer, and oracle-sweep's
// messages (mean 76 bits), without a heap allocation.
static_assert(BitString::kInlineBytes == 16, "inline storage holds 128 bits");

/// std::hash adapter so BitString can key unordered containers.
struct BitStringHash {
  std::size_t operator()(const BitString& b) const { return static_cast<std::size_t>(b.hash()); }
};

}  // namespace mpch::util
