// libFuzzer harness for the word-RAM program decoder + static verifier.
//
// The decoder (verify/program_decoder.hpp) is the hostile-input boundary:
// truncated streams and out-of-enum opcode bytes must be rejected with
// std::invalid_argument. Whatever decodes is pushed through the RamMachine
// constructor (its own typed rejection of bad registers/jumps) and through
// the full verifier pipeline — structural checks, CFG construction,
// dominators, loop discovery, abstract interpretation, JSON rendering —
// under a small synthetic memory model. Any other escape (out_of_range from
// an internal table, a non-terminating fixpoint, a crash) is a bug.
#include <cstddef>
#include <cstdint>
#include <stdexcept>

#include "ram/machine.hpp"
#include "verify/program_decoder.hpp"
#include "util/json.hpp"
#include "verify/verifier.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  // Cap the program length so the polynomial analyses (dominator bitsets,
  // per-pc interval tables) stay fast; 512 instructions dwarfs every real
  // program in the tree.
  if (size > 512 * mpch::verify::kInstructionBytes) return 0;
  try {
    const std::vector<mpch::ram::Instruction> program =
        mpch::verify::decode_program(data, size);
    try {
      mpch::ram::RamMachine machine(program, {});
      (void)machine;
    } catch (const std::invalid_argument&) {
    }
    mpch::verify::VerifyOptions options;
    options.memory.words = 8;
    options.memory.values = {0, 7};
    const mpch::verify::VerifyReport report =
        mpch::verify::verify_program("fuzz", program, options);
    (void)report.format();
    mpch::util::JsonWriter json;
    report.to_json(json);
  } catch (const std::invalid_argument&) {
  }
  return 0;
}
