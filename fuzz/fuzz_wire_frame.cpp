// libFuzzer harness for the MPCF wire format (transport/wire.hpp).
//
// Two layers per input:
//  1. decode — the bytes straight into decode_frames(), exercising every
//     header gate (magic, frame type, oversized length prefix,
//     truncation). The payload cap is shrunk to 1 << 16 so the fuzzer can
//     reach the post-cap parsing code with small inputs while the cap gate
//     still fires on hostile prefixes.
//  2. assemble — every decoded data frame is pushed through an
//     InboxAssembler, driving the duplicated/reordered-seq protocol gates
//     and the canonical (sender, seq) sort with fuzzer-chosen addressing.
//
// WireError is the defined rejection path; anything else that escapes
// (std::length_error from an unguarded resize, bad_alloc from a trusted
// length prefix, ASan findings, ...) is a bug.
#include <cstddef>
#include <cstdint>
#include <vector>

#include "transport/wire.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  std::vector<std::uint8_t> bytes(data, data + size);
  try {
    std::vector<mpch::transport::WireFrame> frames =
        mpch::transport::decode_frames(bytes, /*max_payload_bits=*/1 << 16);
    mpch::transport::InboxAssembler assembler(/*machine=*/0, /*round=*/0);
    for (auto& frame : frames) {
      if (frame.type == mpch::transport::FrameType::kData) {
        assembler.add(frame.from, frame.seq, std::move(frame.payload));
      }
    }
    (void)assembler.take();
  } catch (const mpch::transport::WireError&) {
  }
  return 0;
}
