// libFuzzer harness for the word-level BitString (util/bitstring.hpp).
//
// The input is decoded as an op sequence (get_uint, set_uint, slice, splice,
// +, +=, pad_zeros, truncate, ^, loads, copy and move assignment) over four
// registers and run on both the library's BitString and the bit-at-a-time
// ReferenceBitString from tests/. Any difference in bits, size, hash,
// result, or exception type and message aborts, so libFuzzer records the
// input as a crash. The driver is shared with tests/bitstring_test.cpp and
// the corpus replay test.
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "bitstring_differential.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  if (const auto diff = mpch::util::run_bitstring_differential(data, size)) {
    std::fprintf(stderr, "BitString diverged from the reference: %s\n", diff->c_str());
    std::abort();
  }
  return 0;
}
