// reference_bitwriter.hpp — the BitString-append BitWriter, kept as a
// test-only reference for the streaming writer in src/util/serialize.hpp.
//
// It is the library's earlier writer: every field grows the output string
// with pad_zeros and fills it with set_uint, and write_bits is a plain
// append. Slow, but each step is one BitString call whose range contract is
// already pinned by bitstring_test. It throws the same exception types with
// the same messages, so bitwriter_differential_test can compare the two
// writers op by op.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "util/bitstring.hpp"

namespace mpch::util {

class ReferenceBitWriter {
 public:
  void write_uint(std::uint64_t value, std::size_t width) {
    if (width > 64) throw std::invalid_argument("BitWriter::write_uint: width > 64");
    if (width < 64 && value >> width != 0) {
      throw std::invalid_argument("BitWriter::write_uint: value does not fit width");
    }
    buffer_.pad_zeros(width);
    buffer_.set_uint(buffer_.size() - width, width, value);
  }

  void write_bits(const BitString& bits) { buffer_ += bits; }

  void write_bool(bool b) { write_uint(b ? 1 : 0, 1); }

  std::size_t bit_count() const { return buffer_.size(); }
  BitString take() { return std::move(buffer_); }

 private:
  BitString buffer_;
};

}  // namespace mpch::util
