// reduction_file.hpp — the mpch-reduce reduction-file grammar, as a
// hostile-input boundary.
//
// A reduction file declares claimed reductions between named ProtocolSpecs;
// files arrive from scripts, CI matrices, and users, so — like the jobfile,
// fault-plan, trace, and wire codecs before it — the parser trusts nothing.
// Every malformed byte is rejected through the typed ReductionError path
// with 1-based line *and column* provenance, and every count is capped
// before any container grows (a hostile file is a comparison, never an
// allocation).
//
// Grammar (whitespace/newlines free between tokens; '#' comments to EOL):
//
//   <name> : <source> => <target> via <term> [, <term>]* ;
//
//   name/source/target : [A-Za-z0-9_+./-]+  (source/target name specs in
//                        the catalog the checker resolves against)
//   term               : identity
//                      | round_compress(K) | round_stretch(K)
//                      | space_scale(C)    | machine_regroup(G)
//                      | with_authentication | with_authentication(TAG)
//                      | oracle_reindex(C)
//                      | compose(term [, term]*)
//   K/C/G/TAG          : decimal u64, >= 1 (overflow and zero are rejected)
//
// The `via a, b, c` list is sugar for compose(a, b, c), applied left to
// right: `space_scale(2), round_stretch(2)` first scales space then
// stretches rounds.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "reduce/term.hpp"

namespace mpch::reduce {

/// Typed rejection of a malformed reduction file; line and column are
/// 1-based.
class ReductionError : public std::invalid_argument {
 public:
  ReductionError(std::uint64_t line, std::uint64_t column, const std::string& what)
      : std::invalid_argument("reduction file line " + std::to_string(line) + ", column " +
                           std::to_string(column) + ": " + what),
        line_(line),
        column_(column) {}

  std::uint64_t line() const { return line_; }
  std::uint64_t column() const { return column_; }

 private:
  std::uint64_t line_;
  std::uint64_t column_;
};

/// One claimed reduction: "target inherits source's envelope under term".
struct Reduction {
  std::string name;
  std::string source;
  std::string target;
  Term term;
  std::uint64_t source_line = 0;  ///< 1-based statement provenance

  /// Canonical one-line form: `name: source => target via <term>;`.
  std::string describe() const;
};

/// Pre-allocation guards, all checked before the corresponding container
/// grows.
inline constexpr std::uint64_t kMaxFileBytes = 1ULL << 20;
inline constexpr std::uint64_t kMaxReductions = 1ULL << 12;
inline constexpr std::uint64_t kMaxNameBytes = 128;
inline constexpr std::uint64_t kMaxTermLeaves = 256;
inline constexpr std::uint64_t kMaxTermDepth = 32;

/// Parse a whole reduction file. Throws ReductionError with line/column
/// provenance on the first malformed token.
std::vector<Reduction> parse_reduction_file(const std::string& text);

}  // namespace mpch::reduce
