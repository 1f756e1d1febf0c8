// key_hash.hpp — the in-process hash of BitString keys.
//
// Internal header: the oracle memo finds its entries by it. It reads the
// packed bytes a native 64-bit word at a time, so its value depends on the
// host's byte order. It is for point lookups inside one process only: never
// serialised, never compared across processes, never used as a seed.
// BitString::hash() (byte-wise FNV-1a) is the stable hash that may be
// persisted or seeded from.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "util/bitstring.hpp"

namespace mpch::util {

/// A well-mixed 64-bit hash of (length, bits); the low bits are usable as a
/// power-of-two table index.
inline std::uint64_t key_hash(const BitString& key) {
  constexpr std::uint64_t kMul = 0x9E3779B97F4A7C15ULL;
  const ByteView bytes = key.bytes();
  std::uint64_t h = (key.size() + 1) * kMul;
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    std::uint64_t w;
    std::memcpy(&w, bytes.data() + i, 8);
    h = ((h << 5 | h >> 59) ^ w) * kMul;
  }
  if (i < bytes.size()) {
    std::uint64_t w = 0;
    std::memcpy(&w, bytes.data() + i, bytes.size() - i);
    h = ((h << 5 | h >> 59) ^ w) * kMul;
  }
  // splitmix64's finaliser: every input bit reaches the low bits.
  h ^= h >> 30;
  h *= 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 27;
  h *= 0x94D049BB133111EBULL;
  return h ^ (h >> 31);
}

}  // namespace mpch::util
