// hash_reference.hpp — simple reference versions of the hash paths, for
// differential tests.
//
// reference::sha256 pads the whole message into one buffer and hands every
// block to one compression function in a single call, so it shares neither
// Sha256's incremental buffering nor its CPU dispatch. The MAC, attestation,
// checkpoint-checksum and shared-tape references build the full hash prefix
// in a heap vector exactly as those functions did before they hashed in
// place, so they share nothing with hash::sha256_expand_u64's stack-built
// head and tail blocks either; the library versions must agree with them on
// every input.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "hash/sha256.hpp"
#include "hash/sha256_compress.hpp"
#include "mpc/message.hpp"
#include "util/bitstring.hpp"

namespace mpch::hash::reference {

struct CompressPath {
  std::string name;
  detail::CompressFn fn;
};

/// Every compression function this build and CPU can run: the scalar one
/// always, SHA-NI when supported.
inline std::vector<CompressPath> compress_paths() {
  std::vector<CompressPath> paths = {{"scalar", detail::compress_scalar}};
#ifdef MPCH_SHA256_HAVE_SHANI
  if (detail::shani_supported()) paths.push_back({"sha-ni", detail::compress_shani});
#endif
  return paths;
}

/// One-shot SHA-256 of data[0, len) over compression function `fn`.
inline Sha256::Digest sha256(detail::CompressFn fn, const std::uint8_t* data, std::size_t len) {
  std::vector<std::uint8_t> padded(data, data + len);
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const std::uint64_t bit_len = std::uint64_t{len} * 8;
  for (int i = 7; i >= 0; --i) padded.push_back(static_cast<std::uint8_t>(bit_len >> (i * 8)));
  std::uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  fn(state, padded.data(), padded.size() / 64);
  Sha256::Digest out{};
  for (int i = 0; i < 32; ++i) {
    out[i] = static_cast<std::uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
  }
  return out;
}

inline Sha256::Digest sha256(detail::CompressFn fn, const std::vector<std::uint8_t>& data) {
  return sha256(fn, data.data(), data.size());
}

/// sha256_expand(prefix, 64).get_uint(0, 64): the first 8 bytes of
/// SHA(prefix || counter 0), big-endian.
inline std::uint64_t expand_u64(detail::CompressFn fn, std::vector<std::uint8_t> prefix) {
  prefix.insert(prefix.end(), 4, 0);
  const Sha256::Digest d = sha256(fn, prefix);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | d[i];
  return v;
}

inline void append_u64(std::vector<std::uint8_t>& buf, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf.push_back(static_cast<std::uint8_t>(v >> (i * 8)));
}

/// mpc::message_tag as a prefix-building function.
inline util::BitString reference_message_tag(std::uint64_t tape_seed, std::uint64_t round,
                                             std::uint64_t from, std::uint64_t to,
                                             const util::BitString& payload,
                                             detail::CompressFn fn = detail::compress_scalar) {
  std::vector<std::uint8_t> prefix = {'M', 'M', 'A', 'C'};
  append_u64(prefix, tape_seed);
  append_u64(prefix, round);
  append_u64(prefix, from);
  append_u64(prefix, to);
  append_u64(prefix, payload.size());
  const auto& bytes = payload.bytes();
  prefix.insert(prefix.end(), bytes.begin(), bytes.end());
  return util::BitString::from_uint(expand_u64(fn, std::move(prefix)), 64);
}

/// mpc::SharedTape::word as a prefix-building function.
inline std::uint64_t reference_tape_word(std::uint64_t seed, std::uint64_t word_index,
                                         detail::CompressFn fn = detail::compress_scalar) {
  std::vector<std::uint8_t> prefix = {'T', 'A', 'P', 'E'};
  append_u64(prefix, seed);
  append_u64(prefix, word_index);
  return expand_u64(fn, std::move(prefix));
}

/// mpc::attestation_digest as a prefix-building function.
inline std::uint64_t reference_attestation_digest(
    std::uint64_t tape_seed, std::uint64_t round, std::uint64_t machine,
    const std::vector<mpc::Message>& inbox, detail::CompressFn fn = detail::compress_scalar) {
  std::vector<std::uint8_t> prefix = {'A', 'T', 'S', 'T'};
  append_u64(prefix, tape_seed);
  append_u64(prefix, round);
  append_u64(prefix, machine);
  for (const auto& msg : inbox) {
    append_u64(prefix, msg.from);
    append_u64(prefix, msg.to);
    append_u64(prefix, msg.payload.size());
    const auto& bytes = msg.payload.bytes();
    prefix.insert(prefix.end(), bytes.begin(), bytes.end());
  }
  return expand_u64(fn, std::move(prefix));
}

/// The checkpoint payload checksum (fault/checkpoint.cpp) as a
/// prefix-building function.
inline std::uint64_t reference_payload_checksum(const util::BitString& payload,
                                                detail::CompressFn fn = detail::compress_scalar) {
  std::vector<std::uint8_t> prefix = {'C', 'K', 'P', 'T'};
  append_u64(prefix, payload.size());
  const auto& bytes = payload.bytes();
  prefix.insert(prefix.end(), bytes.begin(), bytes.end());
  return expand_u64(fn, std::move(prefix));
}

}  // namespace mpch::hash::reference
