#include "util/bitstring.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace mpch::util {

namespace {
constexpr std::size_t kByteBits = 8;
constexpr std::size_t kWordBits = 64;
constexpr std::size_t kWordBytes = 8;

std::size_t bytes_for(std::size_t nbits) { return (nbits + kByteBits - 1) / kByteBits; }

// The n <= 8 bytes at p as a big-endian word, left-aligned: p[0] lands in the
// top byte and missing bytes read as zero. Only the n bytes are touched.
std::uint64_t load_be(const std::uint8_t* p, std::size_t n) {
  std::uint64_t w = 0;
  if (n == kWordBytes) {
    std::memcpy(&w, p, kWordBytes);
    if constexpr (std::endian::native == std::endian::little) w = __builtin_bswap64(w);
    return w;
  }
  for (std::size_t i = 0; i < n; ++i) w |= std::uint64_t{p[i]} << (56 - kByteBits * i);
  return w;
}

// Inverse of load_be: write the top n bytes of w to p[0..n).
void store_be(std::uint8_t* p, std::size_t n, std::uint64_t w) {
  if (n == kWordBytes) {
    if constexpr (std::endian::native == std::endian::little) w = __builtin_bswap64(w);
    std::memcpy(p, &w, kWordBytes);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) p[i] = static_cast<std::uint8_t>(w >> (56 - kByteBits * i));
}

// Bits [pos, pos+len) of the packed buffer `src`, right-aligned. Requires
// 1 <= len <= 64 and the range inside the buffer; the window spans at most
// nine bytes, of which only those holding range bits are read.
std::uint64_t read_bits(const std::uint8_t* src, std::size_t pos, std::size_t len) {
  const std::uint8_t* p = src + pos / kByteBits;
  const std::size_t off = pos % kByteBits;
  const std::size_t nbytes = bytes_for(off + len);
  std::uint64_t w = load_be(p, std::min(nbytes, kWordBytes)) << off;
  // A ninth byte only occurs with off >= 1, so the shift is in [1, 7].
  if (nbytes > kWordBytes) w |= std::uint64_t{p[kWordBytes]} >> (kByteBits - off);
  return w >> (kWordBits - len);
}

// Overwrite bits [pos, pos+len) of `dst` with the low len bits of `value`,
// leaving every other bit as it was. Same requirements as read_bits.
void write_bits(std::uint8_t* dst, std::size_t pos, std::size_t len, std::uint64_t value) {
  std::uint8_t* p = dst + pos / kByteBits;
  const std::size_t off = pos % kByteBits;
  const std::size_t nbytes = bytes_for(off + len);
  const std::size_t head = std::min(nbytes, kWordBytes);
  const std::uint64_t mask = ~std::uint64_t{0} << (kWordBits - len);  // len left-aligned ones
  const std::uint64_t bits = value << (kWordBits - len);
  std::uint64_t w = load_be(p, head);
  w = (w & ~(mask >> off)) | (bits >> off);
  store_be(p, head, w);
  if (nbytes > kWordBytes) {
    // The low `off` bits of the window spill into the top of the ninth byte.
    const std::size_t spill = kByteBits - off;
    p[kWordBytes] = static_cast<std::uint8_t>((p[kWordBytes] & ~(mask << spill)) | (bits << spill));
  }
}

// Copy len bits from src at spos to dst at dpos, 64 at a time. The ranges may
// share a buffer only if they do not overlap or coincide exactly.
void copy_bits(std::uint8_t* dst, std::size_t dpos, const std::uint8_t* src, std::size_t spos,
               std::size_t len) {
  if (dpos % kByteBits == 0 && spos % kByteBits == 0 && len >= kByteBits) {
    const std::size_t whole = len / kByteBits;
    std::memmove(dst + dpos / kByteBits, src + spos / kByteBits, whole);
    dpos += whole * kByteBits;
    spos += whole * kByteBits;
    len -= whole * kByteBits;
  }
  for (; len >= kWordBits; len -= kWordBits, dpos += kWordBits, spos += kWordBits) {
    write_bits(dst, dpos, kWordBits, read_bits(src, spos, kWordBits));
  }
  if (len != 0) write_bits(dst, dpos, len, read_bits(src, spos, len));
}
}  // namespace

BitString& BitString::assign_heap(const BitString& rhs) {
  const std::size_t n = rhs.byte_size();
  if (n > capacity()) {
    // The old contents are dead: allocate exactly n, as a vector copy does.
    release();
    data_ = new std::uint8_t[n];
    capacity_ = n;
  }
  std::memcpy(data_, rhs.data_, n);
  nbits_ = rhs.nbits_;
  return *this;
}

void BitString::reserve(std::size_t nbytes) {
  if (nbytes <= capacity()) return;
  // std::vector's growth rule, so appends reallocate no more often than the
  // vector this storage replaced.
  const std::size_t cap = std::max(nbytes, 2 * byte_size());
  auto* grown = new std::uint8_t[cap];
  std::memcpy(grown, data_, byte_size());
  release();
  data_ = grown;
  capacity_ = cap;
}

void BitString::grow(std::size_t nbits) {
  const std::size_t old_bytes = byte_size();
  const std::size_t new_bytes = bytes_for(nbits);
  reserve(new_bytes);
  std::memset(data_ + old_bytes, 0, new_bytes - old_bytes);
  nbits_ = nbits;
}

BitString BitString::from_uint(std::uint64_t value, std::size_t nbits) {
  if (nbits > 64) throw std::invalid_argument("BitString::from_uint: nbits > 64");
  BitString out(nbits);
  out.set_uint(0, nbits, value);
  return out;
}

BitString BitString::from_binary_string(const std::string& bits) {
  BitString out(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits[i] == '1') {
      out.set(i, true);
    } else if (bits[i] != '0') {
      throw std::invalid_argument("BitString::from_binary_string: non-binary character");
    }
  }
  return out;
}

BitString BitString::from_bytes(ByteView bytes) {
  return with_bytes(bytes.size() * kByteBits, [&](std::uint8_t* data, std::size_t) {
    if (!bytes.empty()) std::memcpy(data, bytes.data(), bytes.size());
  });
}

void BitString::check_range(std::size_t pos, std::size_t len) const {
  if (pos + len > nbits_ || pos + len < pos) {
    throw std::out_of_range("BitString: range [" + std::to_string(pos) + ", " +
                            std::to_string(pos + len) + ") exceeds size " +
                            std::to_string(nbits_));
  }
}

bool BitString::get(std::size_t i) const {
  check_range(i, 1);
  return (data_[i / kByteBits] >> (kByteBits - 1 - i % kByteBits)) & 1U;
}

void BitString::set(std::size_t i, bool v) {
  check_range(i, 1);
  std::uint8_t mask = static_cast<std::uint8_t>(1U << (kByteBits - 1 - i % kByteBits));
  if (v) {
    data_[i / kByteBits] |= mask;
  } else {
    data_[i / kByteBits] &= static_cast<std::uint8_t>(~mask);
  }
}

std::uint64_t BitString::get_uint(std::size_t pos, std::size_t len) const {
  if (len > 64) throw std::invalid_argument("BitString::get_uint: len > 64");
  check_range(pos, len);
  return len == 0 ? 0 : read_bits(data_, pos, len);
}

void BitString::set_uint(std::size_t pos, std::size_t len, std::uint64_t value) {
  if (len > 64) throw std::invalid_argument("BitString::set_uint: len > 64");
  check_range(pos, len);
  if (len != 0) write_bits(data_, pos, len, value);
}

BitString BitString::slice(std::size_t pos, std::size_t len) const {
  check_range(pos, len);
  BitString out(len);
  copy_bits(out.data_, 0, data_, pos, len);
  return out;
}

void BitString::splice(std::size_t pos, const BitString& other) {
  check_range(pos, other.size());
  // With other == *this the range check leaves only pos == 0: an exact overlap.
  copy_bits(data_, pos, other.data_, 0, other.nbits_);
}

BitString BitString::operator+(const BitString& rhs) const {
  BitString out(nbits_ + rhs.nbits_);
  // Tail slack is zero, so whole bytes carry the left operand exactly.
  std::memcpy(out.data_, data_, byte_size());
  copy_bits(out.data_, nbits_, rhs.data_, 0, rhs.nbits_);
  return out;
}

BitString& BitString::operator+=(const BitString& rhs) {
  // In-place append: O(|rhs|), not O(|this| + |rhs|) — BitWriter relies on
  // this when assembling large encodings (e.g. full oracle tables). Read
  // rhs's size before growing: rhs may be *this (x += x). Its bytes are read
  // only after the growth, so a reallocation cannot leave them dangling, and
  // the source bits [0, added) stay clear of the bits being written.
  const std::size_t old_bits = nbits_;
  const std::size_t added = rhs.nbits_;
  grow(old_bits + added);
  copy_bits(data_, old_bits, rhs.data_, 0, added);
  return *this;
}

void BitString::pad_zeros(std::size_t len) { grow(nbits_ + len); }

void BitString::truncate(std::size_t len) {
  if (len > nbits_) throw std::out_of_range("BitString::truncate: len > size()");
  // The buffer keeps its capacity; a later grow() zeroes the dropped bytes.
  nbits_ = len;
  clear_tail_slack();
}

BitString BitString::operator^(const BitString& rhs) const {
  if (nbits_ != rhs.nbits_) throw std::invalid_argument("BitString::operator^: length mismatch");
  BitString out(nbits_);
  for (std::size_t i = 0; i < byte_size(); ++i) out.data_[i] = data_[i] ^ rhs.data_[i];
  return out;
}

bool BitString::operator==(const BitString& rhs) const {
  return nbits_ == rhs.nbits_ && std::memcmp(data_, rhs.data_, byte_size()) == 0;
}

bool BitString::operator<(const BitString& rhs) const {
  if (nbits_ != rhs.nbits_) return nbits_ < rhs.nbits_;
  // memcmp orders bytes as unsigned char, as std::vector<uint8_t>'s < did.
  return std::memcmp(data_, rhs.data_, byte_size()) < 0;
}

std::size_t BitString::popcount() const {
  std::size_t count = 0;
  for (std::uint8_t b : bytes()) count += static_cast<std::size_t>(std::popcount(b));
  return count;
}

std::string BitString::to_binary_string() const {
  std::string out;
  out.reserve(nbits_);
  for (std::size_t i = 0; i < nbits_; ++i) out.push_back(get(i) ? '1' : '0');
  return out;
}

std::string BitString::to_hex_string() const {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  std::size_t nibbles = (nbits_ + 3) / 4;
  out.reserve(nibbles);
  for (std::size_t i = 0; i < nibbles; ++i) {
    std::size_t pos = i * 4;
    std::size_t len = std::min<std::size_t>(4, nbits_ - pos);
    std::uint64_t val = get_uint(pos, len) << (4 - len);
    out.push_back(kHex[val & 0xF]);
  }
  return out;
}

std::uint64_t BitString::hash() const {
  // FNV-1a over (length, bytes). Tail slack is zeroed by invariant, so the
  // byte buffer is canonical.
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint8_t byte) {
    h ^= byte;
    h *= 1099511628211ULL;
  };
  for (int i = 0; i < 8; ++i) mix(static_cast<std::uint8_t>(nbits_ >> (i * 8)));
  for (std::uint8_t b : bytes()) mix(b);
  return h;
}

void BitString::clear_tail_slack() {
  if (nbits_ % kByteBits != 0) {
    std::size_t used = nbits_ % kByteBits;
    std::uint8_t mask = static_cast<std::uint8_t>(0xFFU << (kByteBits - used));
    data_[byte_size() - 1] &= mask;
  }
}

}  // namespace mpch::util
