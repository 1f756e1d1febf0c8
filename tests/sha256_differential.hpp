// sha256_differential.hpp — hash one message through the dispatched,
// incremental Sha256 and through the scalar one-shot reference, and report
// any difference.
//
// The input bytes are decoded as: one count byte k (taken mod 16), then k
// little-endian 2-byte split points, then the message. Split points are
// reduced mod (message length + 1) and sorted; the message is fed to
// Sha256::update in the pieces between them, empty pieces included. Where
// the CPU has SHA-NI, the SHA-NI one-shot must match the scalar one too.
// The same function serves the libFuzzer harness (fuzz/fuzz_sha256.cpp) and
// the corpus replay test.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "hash/sha256.hpp"
#include "hash_reference.hpp"

namespace mpch::hash {

inline std::optional<std::string> run_sha256_differential(const std::uint8_t* data,
                                                          std::size_t size) {
  std::size_t pos = 0;
  const std::size_t k = size > 0 ? data[pos++] % 16 : 0;
  std::vector<std::size_t> splits;
  for (std::size_t i = 0; i < k && pos + 2 <= size; ++i, pos += 2) {
    splits.push_back(data[pos] | (std::size_t{data[pos + 1]} << 8));
  }
  const std::uint8_t* msg = data + pos;
  const std::size_t len = size - pos;
  for (auto& s : splits) s %= len + 1;
  std::sort(splits.begin(), splits.end());
  splits.push_back(len);

  Sha256 h;
  std::size_t done = 0;
  for (std::size_t s : splits) {
    h.update(msg + done, s - done);
    done = s;
  }
  const Sha256::Digest got = h.digest();
  const Sha256::Digest want = reference::sha256(detail::compress_scalar, msg, len);
  if (got != want) {
    return "incremental Sha256 over " + std::to_string(len) + " bytes in " +
           std::to_string(splits.size()) + " pieces gave " + Sha256::to_hex(got) +
           ", scalar reference " + Sha256::to_hex(want);
  }
  for (const auto& path : reference::compress_paths()) {
    const Sha256::Digest other = reference::sha256(path.fn, msg, len);
    if (other != want) {
      return path.name + " one-shot over " + std::to_string(len) + " bytes gave " +
             Sha256::to_hex(other) + ", scalar reference " + Sha256::to_hex(want);
    }
  }
  return std::nullopt;
}

}  // namespace mpch::hash
