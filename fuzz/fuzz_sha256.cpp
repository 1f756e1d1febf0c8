// libFuzzer harness for the SHA-256 hash path (hash/sha256.hpp).
//
// The input is decoded into a message plus a list of Sha256::update split
// points (see tests/sha256_differential.hpp). The message is hashed by the
// dispatched, incremental Sha256 in those pieces and by the scalar one-shot
// reference; where the CPU has SHA-NI, its one-shot must agree as well. Any
// difference aborts, so libFuzzer records the input as a crash. The corpus
// replay test runs the same comparison.
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "sha256_differential.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  if (const auto diff = mpch::hash::run_sha256_differential(data, size)) {
    std::fprintf(stderr, "SHA-256 diverged from the scalar reference: %s\n", diff->c_str());
    std::abort();
  }
  return 0;
}
