// bitstring_differential.hpp — run one op sequence on both the word-level
// BitString and the bit-at-a-time ReferenceBitString, and report the first
// place they disagree.
//
// The sequence is decoded from raw bytes, so the same driver serves the
// libFuzzer harness (fuzz/fuzz_bitstring.cpp), the corpus replay test, and
// the seeded property test in bitstring_test.cpp. Four registers hold a
// (BitString, ReferenceBitString) pair each. Every op names its registers and
// arguments from the next input bytes; reading past the end yields zeros.
// After every op the two sides must agree on the op's result or on the type
// and message of the exception it threw, and every register must agree on
// size, packed bytes (tail slack included) and hash(). Opcode byte 255 copy-
// or move-assigns one register to another, which moves strings between
// BitString's inline and heap storage and checks that a moved-from string
// reads as empty.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "reference_bitstring.hpp"
#include "util/bitstring.hpp"

namespace mpch::util {

namespace differential_detail {

/// Reads fixed-width little-endian fields from the input, zeros once spent.
class ByteSource {
 public:
  ByteSource(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}

  bool exhausted() const { return pos_ >= size_; }

  std::uint64_t take(std::size_t nbytes) {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < nbytes; ++i) {
      const std::uint64_t byte = pos_ < size_ ? data_[pos_] : 0;
      ++pos_;
      v |= byte << (8 * i);
    }
    return v;
  }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// "ok <result>" or "<exception type>: <what()>".
template <typename Op>
std::string outcome(Op&& op) {
  try {
    return "ok " + op();
  } catch (const std::out_of_range& e) {
    return std::string("out_of_range: ") + e.what();
  } catch (const std::invalid_argument& e) {
    return std::string("invalid_argument: ") + e.what();
  } catch (const std::exception& e) {
    return std::string("other exception: ") + e.what();
  }
}

}  // namespace differential_detail

/// Decode `data` as an op sequence, run it on both implementations, and
/// return a description of the first divergence, or nullopt if none.
inline std::optional<std::string> run_bitstring_differential(const std::uint8_t* data,
                                                             std::size_t size) {
  using differential_detail::outcome;
  constexpr std::size_t kRegisters = 4;
  // Registers never grow past this, so hostile inputs stay cheap.
  constexpr std::size_t kMaxBits = 4096;
  std::array<BitString, kRegisters> fast;
  std::array<ReferenceBitString, kRegisters> ref;
  differential_detail::ByteSource in(data, size);

  auto reg = [&] { return static_cast<std::size_t>(in.take(1) % kRegisters); };
  // A position or length near `size`: mostly in range, sometimes just past
  // it, and sometimes close enough to SIZE_MAX that pos + len wraps.
  auto near = [&](std::size_t size_hint) -> std::size_t {
    const std::uint64_t mode = in.take(1) % 16;
    const std::size_t delta = static_cast<std::size_t>(in.take(2) % 320);
    if (mode == 0) return std::numeric_limits<std::size_t>::max() - delta % 70;
    if (mode == 1) return size_hint;
    return delta % (size_hint + 70);
  };

  for (std::size_t step = 0; !in.exhausted(); ++step) {
    // Opcode bytes 0..254 keep their original `% 10` mapping, so the
    // checked-in corpus decodes as it always did; 255 selects assignment.
    const std::uint64_t raw = in.take(1);
    const std::uint64_t opcode = raw == 255 ? 10 : raw % 10;
    std::string got;
    std::string want;
    std::string what;
    switch (opcode) {
      case 0: {  // load bytes, then trim to a non-byte length
        const std::size_t d = reg();
        std::vector<std::uint8_t> bytes(static_cast<std::size_t>(in.take(1) % 40));
        for (auto& b : bytes) b = static_cast<std::uint8_t>(in.take(1));
        const std::size_t trim = std::min<std::size_t>(bytes.size() * 8, in.take(1) % 8);
        fast[d] = BitString::from_bytes(bytes);
        fast[d].truncate(fast[d].size() - trim);
        ref[d] = ReferenceBitString::from_bytes(bytes);
        ref[d].truncate(ref[d].size() - trim);
        what = "from_bytes";
        break;
      }
      case 1: {
        const std::size_t r = reg();
        const std::size_t pos = near(fast[r].size());
        const std::size_t len = static_cast<std::size_t>(in.take(1) % 66);
        what = "get_uint(" + std::to_string(pos) + ", " + std::to_string(len) + ")";
        got = outcome([&] { return std::to_string(fast[r].get_uint(pos, len)); });
        want = outcome([&] { return std::to_string(ref[r].get_uint(pos, len)); });
        break;
      }
      case 2: {
        const std::size_t r = reg();
        const std::size_t pos = near(fast[r].size());
        const std::size_t len = static_cast<std::size_t>(in.take(1) % 66);
        const std::uint64_t value = in.take(8);
        what = "set_uint(" + std::to_string(pos) + ", " + std::to_string(len) + ")";
        got = outcome([&] { fast[r].set_uint(pos, len, value); return std::string(); });
        want = outcome([&] { ref[r].set_uint(pos, len, value); return std::string(); });
        break;
      }
      case 3: {
        const std::size_t d = reg();
        const std::size_t s = reg();
        const std::size_t pos = near(fast[s].size());
        const std::size_t len = near(fast[s].size());
        what = "slice(" + std::to_string(pos) + ", " + std::to_string(len) + ")";
        got = outcome([&] { fast[d] = fast[s].slice(pos, len); return std::string(); });
        want = outcome([&] { ref[d] = ref[s].slice(pos, len); return std::string(); });
        break;
      }
      case 4: {
        const std::size_t d = reg();
        const std::size_t s = reg();
        const std::size_t pos = near(fast[d].size());
        what = "splice(" + std::to_string(pos) + ", r" + std::to_string(s) + ")";
        got = outcome([&] { fast[d].splice(pos, fast[s]); return std::string(); });
        want = outcome([&] { ref[d].splice(pos, ref[s]); return std::string(); });
        break;
      }
      case 5: {
        const std::size_t d = reg();
        const std::size_t a = reg();
        const std::size_t b = reg();
        if (fast[a].size() + fast[b].size() > kMaxBits) continue;
        what = "operator+";
        fast[d] = fast[a] + fast[b];
        ref[d] = ref[a] + ref[b];
        break;
      }
      case 6: {
        const std::size_t a = reg();
        const std::size_t b = reg();
        if (fast[a].size() + fast[b].size() > kMaxBits) continue;
        what = "operator+=";
        fast[a] += fast[b];
        ref[a] += ref[b];
        break;
      }
      case 7: {
        const std::size_t r = reg();
        const std::size_t len = static_cast<std::size_t>(in.take(2) % 301);
        if (fast[r].size() + len > kMaxBits) continue;
        what = "pad_zeros(" + std::to_string(len) + ")";
        fast[r].pad_zeros(len);
        ref[r].pad_zeros(len);
        break;
      }
      case 8: {
        const std::size_t r = reg();
        const std::size_t len = near(fast[r].size());
        what = "truncate(" + std::to_string(len) + ")";
        got = outcome([&] { fast[r].truncate(len); return std::string(); });
        want = outcome([&] { ref[r].truncate(len); return std::string(); });
        break;
      }
      case 10: {  // copy- or move-assign r_s to r_d, self-assignment included
        const std::size_t d = reg();
        const std::size_t s = reg();
        const std::string regs = " r" + std::to_string(d) + " = r" + std::to_string(s);
        if (in.take(1) % 2 == 0) {
          what = "copy-assign" + regs;
          fast[d] = fast[s];
          ref[d] = ref[s];
        } else {
          // A moved-from BitString is empty; a self-move keeps its value.
          what = "move-assign" + regs;
          fast[d] = std::move(fast[s]);
          if (d != s) {
            ref[d] = ref[s];
            ref[s] = ReferenceBitString();
          }
        }
        break;
      }
      default: {
        const std::size_t d = reg();
        const std::size_t a = reg();
        const std::size_t b = reg();
        what = "operator^";
        got = outcome([&] { fast[d] = fast[a] ^ fast[b]; return std::string(); });
        want = outcome([&] { ref[d] = ref[a] ^ ref[b]; return std::string(); });
        break;
      }
    }
    const std::string where = "step " + std::to_string(step) + " " + what;
    if (got != want) return where + ": result '" + got + "' vs reference '" + want + "'";
    for (std::size_t r = 0; r < kRegisters; ++r) {
      if (fast[r].size() != ref[r].size() || fast[r].bytes() != ref[r].bytes() ||
          fast[r].hash() != ref[r].hash()) {
        return where + ": register r" + std::to_string(r) + " holds " +
               std::to_string(fast[r].size()) + " bits '" + fast[r].to_hex_string() +
               "' vs reference " + std::to_string(ref[r].size()) + " bits";
      }
    }
  }
  return std::nullopt;
}

}  // namespace mpch::util
