// cli.hpp — minimal flag parsing for the tools, examples and benches.
//
// Supports `--name=value`, `--name value`, and boolean `--flag`. Values are
// strict: a number must be the whole string, a boolean one of
// true/false/1/0/yes/no. Unknown flags are an error (typos in experiment
// sweeps should fail loudly, not silently run the default): a tool reads
// every flag it documents, then calls reject_unknown().
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace mpch::util {

/// A command line a tool cannot accept: malformed argv, a value that does
/// not parse as its flag's type, or a flag the tool does not know. The
/// message names the flag.
class CliError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

class CliArgs {
 public:
  /// Parse argv; throws CliError on malformed input.
  CliArgs(int argc, const char* const* argv);

  bool has(const std::string& name) const { return values_.count(name) != 0; }

  /// Typed getters: `fallback` when the flag is absent, CliError when its
  /// value does not parse. get_u64 reads util::parse_decimal's unsigned
  /// decimals (util/parse.hpp); get_double must consume the whole value.
  std::string get_string(const std::string& name, const std::string& fallback) const;
  std::uint64_t get_u64(const std::string& name, std::uint64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;
  /// A value from a closed set (`--format text|json`): `fallback` when the
  /// flag is absent, CliError naming the flag and every choice when the
  /// value is not in `allowed`.
  std::string get_choice(const std::string& name, const std::string& fallback,
                         const std::vector<std::string>& allowed) const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Names that were provided but never queried — call at the end of main to
  /// reject typos.
  std::vector<std::string> unused() const;

  /// Throw CliError("unknown flag --NAME") for the first unused() name.
  void reject_unknown() const;

 private:
  const std::string* value_of(const std::string& name) const;

  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> queried_;
  std::vector<std::string> positional_;
};

/// The shared main() of the command-line tools: parse argv and run `body`.
/// A std::invalid_argument — a CliError, or any text grammar's typed error
/// (JobSpecError, TraceError, ReplayError, ReductionError, fault plans,
/// --bound) — becomes "<tool>: <message>" on stderr and exit status 2.
int run_tool(const char* tool, int argc, const char* const* argv,
             int (*body)(const CliArgs& args));

/// The whole text of the file a flag names, or of stdin for "-"; CliError
/// when the file cannot be opened.
std::string read_input(const std::string& path);

}  // namespace mpch::util
