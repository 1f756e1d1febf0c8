// static_checker.hpp — prove or refute ProtocolSpec-vs-MpcConfig conformance
// without executing the protocol.
//
// The checks mirror, one for one, the runtime guards of MpcSimulation and
// CountingOracle:
//
//   runtime guard                      static check
//   ---------------------------------------------------------------------
//   MemoryViolation (inbox union > s)  kMemory / kInboxCapacity
//   QueryBudgetExceeded                kQueryBudget
//   RoutingViolation (to >= m)         kRouting
//   max_rounds cap hit                 kRoundCount
//   null-oracle crash                  kOracleMissing
//
// Every diagnostic carries machine/round provenance (the envelope's witness
// machine and the first offending round), so a rejected protocol reads the
// same as a runtime violation would — just before any cycles are spent.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/protocol_spec.hpp"
#include "mpc/simulation.hpp"

namespace mpch::util {
class JsonWriter;
}

namespace mpch::analysis {

enum class ViolationKind {
  kMemory,         ///< declared round-start memory exceeds s
  kInboxCapacity,  ///< declared per-round delivery exceeds s
  kQueryBudget,    ///< declared per-round queries exceed q (unclamped protocols)
  kRouting,        ///< protocol addresses machine indices >= m
  kRoundCount,     ///< declared round count exceeds the configured cap
  kOracleMissing,  ///< protocol needs an oracle the config cannot provide
  kFanIn,          ///< observed fan-in exceeded the declared envelope
  kFanOut,         ///< observed fan-out exceeded the declared envelope
  kSentBits,       ///< observed sent bits exceeded the declared envelope
  kMessageSize,    ///< observed payload exceeded the declared envelope
};

const char* violation_kind_name(ViolationKind kind);

/// One conformance failure with provenance: which bound, where, by how much.
struct Diagnostic {
  ViolationKind kind = ViolationKind::kMemory;
  std::uint64_t round = 0;    ///< first offending round
  std::uint64_t machine = 0;  ///< witness machine
  std::uint64_t value = 0;    ///< declared (static pass) or observed (soundness pass)
  std::uint64_t limit = 0;    ///< the bound that was exceeded
  std::string message;        ///< full human-readable diagnostic

  std::string to_string() const;
  /// {"kind":...,"round":...,"machine":...,"value":...,"limit":...,"message":...}
  void to_json(util::JsonWriter& w) const;
};

struct AnalysisReport {
  std::string protocol;
  std::vector<Diagnostic> violations;

  bool ok() const { return violations.empty(); }
  /// Multi-line report: "PASS"/"FAIL" headline plus one line per diagnostic.
  std::string format() const;
  /// One JSON object per report — the machine-readable twin of format(),
  /// mirroring mpch-verify's report shape so `--format json` consumers can
  /// share parsing code: {"protocol":...,"ok":...,"violations":[{"kind":...,
  /// "round":...,"machine":...,"value":...,"limit":...,"message":...}]}.
  void to_json(util::JsonWriter& w) const;
};

/// The MpcConfig a spec documents for itself: m and the round cap are the
/// declared values, s is the largest round-start memory or delivery over
/// every round shape, and q is given (a spec declares queries per round, not
/// the budget it runs under). check_spec passes under it by construction;
/// mpch-analyze and mpch-verify shrink it to seed violations.
mpc::MpcConfig documented_config(const ProtocolSpec& spec, std::uint64_t q);

/// The static pass: verify `spec` fits inside `config`. Does not execute
/// anything. Throws std::invalid_argument on a malformed spec (zero machines
/// or zero rounds) — that is a bug in the spec, not a conformance result.
AnalysisReport check_spec(const ProtocolSpec& spec, const mpc::MpcConfig& config);

/// Effective per-round query bound of `spec` under `config` — the declared
/// envelope, clamped to q for budget-adaptive protocols. Shared by the
/// static and soundness passes so they can never disagree about what a
/// protocol promised.
std::uint64_t effective_query_bound(const ProtocolSpec& spec, const RoundEnvelope& env,
                                    const mpc::MpcConfig& config);

/// Fieldwise spec dominance: does `inner` fit inside `outer`? Every resource
/// `inner` may use per round (memory, queries, fan-in/out, traffic, message
/// size), its machine count, and its round count must be <= what `outer`
/// declares. Diagnostics reuse the check_spec vocabulary (kRouting for
/// machines, kRoundCount for rounds, kOracleMissing when inner needs an
/// oracle outer does not). This is the middle link of the verifier's sandwich
/// check: observed peaks <= inferred spec <= hand-declared spec.
AnalysisReport check_spec_dominance(const ProtocolSpec& inner, const ProtocolSpec& outer);

}  // namespace mpch::analysis
