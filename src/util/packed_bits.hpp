// packed_bits.hpp — word-at-a-time access to MSB-first packed bit buffers.
//
// The layout BitString stores (bit 0 is the top bit of byte 0). BitString's
// bit ops (bitstring.cpp) and the BitReader/BitWriter codec (serialize.hpp)
// share these loads and stores, so the codec can read and write a
// BitString's bytes directly instead of going through its checked accessors.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace mpch::util::detail {

/// The n <= 8 bytes at p as a big-endian word, left-aligned: p[0] lands in the
/// top byte and missing bytes read as zero. Only the n bytes are touched.
inline std::uint64_t load_be(const std::uint8_t* p, std::size_t n) {
  std::uint64_t w = 0;
  if (n == 8) {
    std::memcpy(&w, p, 8);
    if constexpr (std::endian::native == std::endian::little) w = __builtin_bswap64(w);
    return w;
  }
  for (std::size_t i = 0; i < n; ++i) w |= std::uint64_t{p[i]} << (56 - 8 * i);
  return w;
}

/// Inverse of load_be: write the top n <= 8 bytes of w to p[0..n).
inline void store_be(std::uint8_t* p, std::size_t n, std::uint64_t w) {
  if (n == 8) {
    if constexpr (std::endian::native == std::endian::little) w = __builtin_bswap64(w);
    std::memcpy(p, &w, 8);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) p[i] = static_cast<std::uint8_t>(w >> (56 - 8 * i));
}

/// Bits [pos, pos+len) of the packed buffer `src`, right-aligned. Requires
/// 1 <= len <= 64 and the range inside the buffer; the window spans at most
/// nine bytes, of which only those holding range bits are read.
inline std::uint64_t read_bits(const std::uint8_t* src, std::size_t pos, std::size_t len) {
  const std::uint8_t* p = src + pos / 8;
  const std::size_t off = pos % 8;
  const std::size_t nbytes = (off + len + 7) / 8;
  std::uint64_t w = load_be(p, std::min<std::size_t>(nbytes, 8)) << off;
  // A ninth byte only occurs with off >= 1, so the shift is in [1, 7].
  if (nbytes > 8) w |= std::uint64_t{p[8]} >> (8 - off);
  return w >> (64 - len);
}

}  // namespace mpch::util::detail
