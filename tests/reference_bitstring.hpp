// reference_bitstring.hpp — the bit-at-a-time BitString, kept as a test-only
// reference for the word-level implementation in src/util/bitstring.cpp.
//
// It follows the library's earlier implementation, minus its byte-copy fast
// paths: every multi-bit operation moves one bit per step through
// get()/set(), each with its own range check, which makes it slow but easy
// to check by eye. It keeps the same packed layout (MSB-first,
// zeroed tail slack) and the same exception types and messages, so
// bitstring_differential.hpp can compare the two byte for byte. The one
// change from the original is that operator+= copies its operand first, so
// `x += x` is well defined here too.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace mpch::util {

class ReferenceBitString {
 public:
  ReferenceBitString() = default;
  explicit ReferenceBitString(std::size_t nbits) : bytes_(bytes_for(nbits), 0), nbits_(nbits) {}

  static ReferenceBitString from_bytes(const std::vector<std::uint8_t>& bytes) {
    ReferenceBitString out(bytes.size() * 8);
    out.bytes_ = bytes;
    return out;
  }

  std::size_t size() const { return nbits_; }
  const std::vector<std::uint8_t>& bytes() const { return bytes_; }

  bool get(std::size_t i) const {
    check_range(i, 1);
    return (bytes_[i / 8] >> (7 - i % 8)) & 1U;
  }

  void set(std::size_t i, bool v) {
    check_range(i, 1);
    const auto mask = static_cast<std::uint8_t>(1U << (7 - i % 8));
    if (v) {
      bytes_[i / 8] |= mask;
    } else {
      bytes_[i / 8] &= static_cast<std::uint8_t>(~mask);
    }
  }

  std::uint64_t get_uint(std::size_t pos, std::size_t len) const {
    if (len > 64) throw std::invalid_argument("BitString::get_uint: len > 64");
    check_range(pos, len);
    std::uint64_t out = 0;
    for (std::size_t i = 0; i < len; ++i) out = (out << 1) | static_cast<std::uint64_t>(get(pos + i));
    return out;
  }

  void set_uint(std::size_t pos, std::size_t len, std::uint64_t value) {
    if (len > 64) throw std::invalid_argument("BitString::set_uint: len > 64");
    check_range(pos, len);
    for (std::size_t i = 0; i < len; ++i) set(pos + i, (value >> (len - 1 - i)) & 1ULL);
  }

  ReferenceBitString slice(std::size_t pos, std::size_t len) const {
    check_range(pos, len);
    ReferenceBitString out(len);
    for (std::size_t i = 0; i < len; ++i) out.set(i, get(pos + i));
    return out;
  }

  void splice(std::size_t pos, const ReferenceBitString& other) {
    check_range(pos, other.size());
    for (std::size_t i = 0; i < other.size(); ++i) set(pos + i, other.get(i));
  }

  ReferenceBitString operator+(const ReferenceBitString& rhs) const {
    ReferenceBitString out(nbits_ + rhs.nbits_);
    for (std::size_t i = 0; i < nbits_; ++i) out.set(i, get(i));
    for (std::size_t i = 0; i < rhs.nbits_; ++i) out.set(nbits_ + i, rhs.get(i));
    return out;
  }

  ReferenceBitString& operator+=(const ReferenceBitString& rhs) {
    const ReferenceBitString copy = rhs;  // rhs may be *this
    const std::size_t old_bits = nbits_;
    pad_zeros(copy.nbits_);
    for (std::size_t i = 0; i < copy.nbits_; ++i) set(old_bits + i, copy.get(i));
    return *this;
  }

  void pad_zeros(std::size_t len) {
    nbits_ += len;
    bytes_.resize(bytes_for(nbits_), 0);
  }

  void truncate(std::size_t len) {
    if (len > nbits_) throw std::out_of_range("BitString::truncate: len > size()");
    nbits_ = len;
    bytes_.resize(bytes_for(nbits_));
    if (nbits_ % 8 != 0) bytes_.back() &= static_cast<std::uint8_t>(0xFFU << (8 - nbits_ % 8));
  }

  ReferenceBitString operator^(const ReferenceBitString& rhs) const {
    if (nbits_ != rhs.nbits_) throw std::invalid_argument("BitString::operator^: length mismatch");
    ReferenceBitString out(nbits_);
    for (std::size_t i = 0; i < nbits_; ++i) out.set(i, get(i) != rhs.get(i));
    return out;
  }

  std::uint64_t hash() const {
    std::uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](std::uint8_t byte) {
      h ^= byte;
      h *= 1099511628211ULL;
    };
    for (int i = 0; i < 8; ++i) mix(static_cast<std::uint8_t>(nbits_ >> (i * 8)));
    for (std::uint8_t b : bytes_) mix(b);
    return h;
  }

 private:
  static std::size_t bytes_for(std::size_t nbits) { return (nbits + 7) / 8; }

  void check_range(std::size_t pos, std::size_t len) const {
    if (pos + len > nbits_ || pos + len < pos) {
      throw std::out_of_range("BitString: range [" + std::to_string(pos) + ", " +
                              std::to_string(pos + len) + ") exceeds size " +
                              std::to_string(nbits_));
    }
  }

  std::vector<std::uint8_t> bytes_;
  std::size_t nbits_ = 0;
};

}  // namespace mpch::util
