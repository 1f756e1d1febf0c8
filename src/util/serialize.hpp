// serialize.hpp — byte/bit-level writer and reader used by the compression
// argument (src/compress), the strategies' message codecs, and the fault
// subsystem's checkpoints (src/fault).
// The proof's Enc/Dec schemes are literal encodings whose *length in bits* is
// the whole point, so the writer tracks bit-exact sizes and supports
// fixed-width fields like "log q bits for a query index". The field helpers
// below add the self-describing (length-prefixed) layer checkpoints need,
// where the reader cannot know field widths a priori.
//
// Both sides work on the packed bytes, not bit by bit:
//  * BitWriter streams. Fields collect in a 64-bit accumulator that reaches
//    the output a whole word at a time; write_bits copies a byte-aligned
//    string with memcpy and feeds any other through the accumulator 64 bits
//    per step. The output is a BitString built in place, so an encoding of
//    up to 128 bits (every short message) stays in its inline storage.
//  * BitReader borrows. It reads the BitString it is given where it lies,
//    with one range check per field, so decoding a message or a checkpoint
//    copies nothing but the fields it returns. The string must outlive the
//    reader; constructing one from a temporary does not compile.
// Checkpoint loading leans on both: fault::deserialize checksums the
// payload in place (the bytes after the 32-byte header) and then parses it
// with the same reader that read the header.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/bitstring.hpp"
#include "util/packed_bits.hpp"

namespace mpch::util {

/// Appends fixed-width fields, MSB-first, into a BitString it builds.
class BitWriter {
 public:
  /// Append the low `width` bits of `value` (width <= 64).
  void write_uint(std::uint64_t value, std::size_t width) {
    if (width > 64) throw std::invalid_argument("BitWriter::write_uint: width > 64");
    if (width < 64 && value >> width != 0) {
      throw std::invalid_argument("BitWriter::write_uint: value does not fit width");
    }
    if (width != 0) put(value, width);
  }

  void write_bits(const BitString& bits);

  void write_bool(bool b) { write_uint(b ? 1 : 0, 1); }

  std::size_t bit_count() const { return out_.nbits_ + pending_; }

  /// The bits written so far; leaves the writer empty.
  BitString take() {
    drain();
    return std::move(out_);
  }

 private:
  // Move the pending bits into out_: it then ends on a byte boundary
  // whenever pending_ was a multiple of 8.
  void drain() {
    const std::size_t at = out_.nbits_ / 8;
    const std::size_t n = (pending_ + 7) / 8;
    reserve(at + n);
    detail::store_be(out_.data_ + at, n, acc_);
    out_.nbits_ += pending_;
    acc_ = 0;
    pending_ = 0;
  }

  // Append the low `width` bits of `value`: 1 <= width <= 64, value fits.
  void put(std::uint64_t value, std::size_t width) {
    const std::size_t room = 64 - pending_;
    if (width < room) {
      acc_ |= value << (room - width);
      pending_ += width;
      return;
    }
    const std::size_t spill = width - room;  // < 64, as room >= 1
    flush(acc_ | value >> spill);
    acc_ = spill == 0 ? 0 : value << (64 - spill);
    pending_ = spill;
  }

  // Append one full word to the output.
  void flush(std::uint64_t word) {
    const std::size_t at = out_.nbits_ / 8;
    reserve(at + 8);
    detail::store_be(out_.data_ + at, 8, word);
    out_.nbits_ += 64;
  }

  // The capacity check inline; BitString::reserve itself is out of line.
  void reserve(std::size_t nbytes) {
    if (nbytes > out_.capacity()) out_.reserve(nbytes);
  }

  // Written bits: out_ holds a whole number of bytes (between calls), then
  // the accumulator holds the next pending_ < 64 bits, left-aligned, zeros
  // below them.
  BitString out_;
  std::uint64_t acc_ = 0;
  std::size_t pending_ = 0;
};

/// Sequentially consumes fixed-width fields from a BitString it borrows:
/// the string must outlive the reader and not change while it reads.
class BitReader {
 public:
  explicit BitReader(const BitString& bits) : bits_(bits) {}
  /// A temporary would be destroyed before the first read.
  BitReader(BitString&&) = delete;

  std::uint64_t read_uint(std::size_t width) {
    if (width > 64 || width > remaining()) [[unlikely]] reject(width);
    const std::uint64_t v = width == 0 ? 0 : detail::read_bits(bits_.bytes().data(), pos_, width);
    pos_ += width;
    return v;
  }

  BitString read_bits(std::size_t len) {
    if (len > remaining()) [[unlikely]] reject(len);
    BitString v = bits_.slice(pos_, len);
    pos_ += len;
    return v;
  }

  bool read_bool() { return read_uint(1) != 0; }

  /// Advance past `len` bits without reading them.
  void skip(std::size_t len) {
    if (len > remaining()) [[unlikely]] reject(len);
    pos_ += len;
  }

  std::size_t remaining() const { return bits_.size() - pos_; }
  std::size_t position() const { return pos_; }
  bool exhausted() const { return pos_ == bits_.size(); }

 private:
  // Throws std::out_of_range for a read past the end (a length is compared
  // against the remainder, never pos_ + len, so a hostile 64-bit length
  // cannot wrap past the bound), else std::invalid_argument for a uint
  // wider than 64 bits.
  [[noreturn]] void reject(std::size_t len) const;

  const BitString& bits_;
  std::size_t pos_ = 0;
};

// --------------------------------------------------------------------------
// Self-describing fields: a 64-bit length prefix followed by the payload, so
// a reader with no schema knowledge of the value can still skip or load it.

/// Write `bits` as a length-prefixed field.
void write_bitstring_field(BitWriter& w, const BitString& bits);

/// Read a field written by write_bitstring_field.
BitString read_bitstring_field(BitReader& r);

/// Write a UTF-8/byte string as a length-prefixed field (length in bytes).
void write_string_field(BitWriter& w, const std::string& s);

/// Read a field written by write_string_field.
std::string read_string_field(BitReader& r);

// --------------------------------------------------------------------------
// File round-trip for encodings. The on-disk layout is an 8-byte
// little-endian bit count followed by the packed bytes, so a BitString of any
// (non-byte-aligned) length survives save -> load exactly.

/// Write `bits` to `path`, replacing any existing file. Throws
/// std::runtime_error on IO failure.
void write_bits_file(const std::string& path, const BitString& bits);

/// Read a file written by write_bits_file. Throws std::runtime_error on IO
/// failure or a malformed (truncated) file.
BitString read_bits_file(const std::string& path);

}  // namespace mpch::util
