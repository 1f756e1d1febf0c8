// libFuzzer harness for the checkpoint wire format (fault/checkpoint.hpp).
//
// Three paths per input:
//  1. raw — the bytes straight into deserialize(), exercising the header
//     gates (magic, version, length, checksum);
//  2. cut — when the bytes run past the payload length their header
//     declares (a snapshot stored as whole bytes carries up to 7 padding
//     bits), the same wire cut to that length, so a real snapshot reaches
//     the checksum and the payload parser;
//  3. framed — the same bytes wrapped in a *valid* header via
//     frame_checkpoint_payload(), driving the payload field parser that the
//     checksum otherwise shields from anything a fuzzer can produce. This is
//     where hostile element counts and truncated length-prefixed fields live.
//
// CheckpointError is the defined rejection path; anything else that escapes
// (std::length_error from an unguarded resize, ASan findings, ...) is a bug.
#include <cstddef>
#include <cstdint>
#include <vector>

#include "fault/checkpoint.hpp"
#include "util/bitstring.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  std::vector<std::uint8_t> bytes(data, data + size);
  mpch::util::BitString bits = mpch::util::BitString::from_bytes(bytes);
  try {
    mpch::fault::deserialize(bits);
  } catch (const mpch::fault::CheckpointError&) {
  }
  // Magic, version, then the declared payload bit count at bit 128 of the
  // 256-bit header.
  if (bits.size() >= 256) {
    const std::uint64_t payload_bits = bits.get_uint(128, 64);
    if (payload_bits < bits.size() - 256) {
      try {
        mpch::fault::deserialize(bits.slice(0, 256 + payload_bits));
      } catch (const mpch::fault::CheckpointError&) {
      }
    }
  }
  try {
    mpch::fault::deserialize(mpch::fault::frame_checkpoint_payload(bits));
  } catch (const mpch::fault::CheckpointError&) {
  }
  return 0;
}
