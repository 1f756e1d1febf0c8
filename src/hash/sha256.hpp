// sha256.hpp — from-scratch SHA-256 (FIPS 180-4).
//
// Role in the reproduction: the paper's final step is the *random oracle
// methodology* — replace RO by "a good cryptographic hash function h" to get
// a concrete hard function f^h. Sha256 is that h. It is implemented from
// scratch (no external crypto dependency) and validated against the FIPS
// 180-4 test vectors in tests/sha256_test.cpp. Blocks are compressed by the
// CPU's SHA extensions when it has them and by the scalar FIPS 180-4 rounds
// otherwise (see sha256_compress.hpp); both give the same digest.
#pragma once

#include <array>
#include <cstdint>
#include <cstddef>
#include <span>
#include <string>

namespace mpch::hash {

/// Incremental SHA-256. Usage: update(...) any number of times, then
/// digest(); the object can be reset() and reused.
class Sha256 {
 public:
  static constexpr std::size_t kDigestBytes = 32;
  using Digest = std::array<std::uint8_t, kDigestBytes>;
  /// H0..H7 of FIPS 180-4 §5.3.3: the state every message starts from, for
  /// callers that pad a message themselves and hand its blocks straight to
  /// detail::compress.
  static constexpr std::array<std::uint32_t, 8> kInitState = {
      0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
      0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

  Sha256() { reset(); }

  void reset();
  void update(const std::uint8_t* data, std::size_t len);
  /// Takes any contiguous byte range: a std::vector, a std::array, or a
  /// BitString's bytes() view.
  void update(std::span<const std::uint8_t> data) { update(data.data(), data.size()); }
  void update(const std::string& data) {
    update(reinterpret_cast<const std::uint8_t*>(data.data()), data.size());
  }

  /// Finalize and return the digest. The object must be reset() before reuse.
  Digest digest();

  /// One-shot convenience.
  static Digest hash(const std::uint8_t* data, std::size_t len);
  static Digest hash(std::span<const std::uint8_t> data) {
    return hash(data.data(), data.size());
  }
  static Digest hash(const std::string& data) {
    return hash(reinterpret_cast<const std::uint8_t*>(data.data()), data.size());
  }

  static std::string to_hex(const Digest& d);

 private:
  std::array<std::uint32_t, 8> state_{};
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffer_len_ = 0;
  std::uint64_t total_bytes_ = 0;
  bool finalized_ = false;
};

}  // namespace mpch::hash
