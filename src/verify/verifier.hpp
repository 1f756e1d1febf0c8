// verifier.hpp — entry point of the static verifier.
//
// verify_program runs the structural bytecode checks (the load-time mirror of
// RamMachine's runtime guards: opcode/register/jump-target validity, no
// fall-off-the-end), then CFG-level hygiene (unreachable code, use-before-def
// against the implicit zero-initialized registers), and finally the abstract
// interpreter (verify/abstract_interpreter.hpp) for termination, step bounds,
// and memory footprints. Reports render as text (format()) or JSON
// (to_json(), through util::JsonWriter) for the mpch-verify CLI.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "ram/machine.hpp"
#include "verify/abstract_interpreter.hpp"
#include "verify/diagnostics.hpp"

namespace mpch::util {
class JsonWriter;
}

namespace mpch::verify {

struct VerifyOptions {
  MemoryModel memory;   ///< what to assume about the initial memory image
  bool analyze = true;  ///< run the abstract-interpretation pass when structure is valid
};

struct VerifyReport {
  std::string program;
  std::vector<Finding> findings;
  bool structurally_valid = false;
  std::optional<ProgramFacts> facts;  ///< present when the analysis pass ran

  /// No error-severity findings (warnings allowed).
  bool ok() const { return !has_errors(findings); }
  /// No findings at all — the bar for checked-in corpus programs.
  bool clean() const { return findings.empty(); }

  std::string format() const;
  void to_json(util::JsonWriter& w) const;
};

VerifyReport verify_program(const std::string& name,
                            const std::vector<ram::Instruction>& program,
                            const VerifyOptions& options = {});

}  // namespace mpch::verify
