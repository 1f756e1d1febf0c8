// shared_tape.hpp — the shared, read-only random tape of Definition 2.1.
//
// "a shared, read-only, and multiple access tape containing an arbitrarily
// long random bit string." Implemented as a PRF over the position so it is
// lazily materialised, positionally stable, and identical for all machines.
#pragma once

#include <cstdint>

#include "hash/random_oracle.hpp"

namespace mpch::mpc {

class SharedTape {
 public:
  explicit SharedTape(std::uint64_t seed) : seed_(seed) {}

  /// 64 random bits at word-granular position `word_index`.
  std::uint64_t word(std::uint64_t word_index) const {
    // "TAPE" || seed || word_index, integer fields little-endian: with the
    // counter and padding, one block built on the stack and compressed once.
    std::uint8_t prefix[4 + 8 + 8] = {'T', 'A', 'P', 'E'};
    hash::store_le64(prefix + 4, seed_);
    hash::store_le64(prefix + 12, word_index);
    return hash::sha256_expand_u64(prefix, nullptr, 0);
  }

  std::uint64_t seed() const { return seed_; }

 private:
  std::uint64_t seed_;
};

}  // namespace mpch::mpc
