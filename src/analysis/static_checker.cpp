#include "analysis/static_checker.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "util/json.hpp"

namespace mpch::analysis {

const char* violation_kind_name(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kMemory:
      return "memory";
    case ViolationKind::kInboxCapacity:
      return "inbox-capacity";
    case ViolationKind::kQueryBudget:
      return "query-budget";
    case ViolationKind::kRouting:
      return "routing";
    case ViolationKind::kRoundCount:
      return "round-count";
    case ViolationKind::kOracleMissing:
      return "oracle-missing";
    case ViolationKind::kFanIn:
      return "fan-in";
    case ViolationKind::kFanOut:
      return "fan-out";
    case ViolationKind::kSentBits:
      return "sent-bits";
    case ViolationKind::kMessageSize:
      return "message-size";
  }
  return "unknown";
}

std::string Diagnostic::to_string() const {
  std::ostringstream os;
  os << "[" << violation_kind_name(kind) << "] round " << round << ", machine " << machine
     << ": " << message;
  return os.str();
}

std::string AnalysisReport::format() const {
  std::ostringstream os;
  os << protocol << ": " << (ok() ? "PASS" : "FAIL");
  if (!ok()) {
    os << " (" << violations.size() << (violations.size() == 1 ? " violation" : " violations")
       << ")";
    for (const auto& d : violations) os << "\n  " << d.to_string();
  }
  return os.str();
}

void Diagnostic::to_json(util::JsonWriter& w) const {
  w.begin_object();
  w.member("kind", violation_kind_name(kind));
  w.member("round", round);
  w.member("machine", machine);
  w.member("value", value);
  w.member("limit", limit);
  w.member("message", message);
  w.end_object();
}

void AnalysisReport::to_json(util::JsonWriter& w) const {
  w.begin_object();
  w.member("protocol", protocol);
  w.member("ok", ok());
  w.key("violations").begin_array();
  for (const Diagnostic& d : violations) d.to_json(w);
  w.end_array();
  w.end_object();
}

mpc::MpcConfig documented_config(const ProtocolSpec& spec, std::uint64_t q) {
  mpc::MpcConfig c;
  c.machines = spec.machines;
  c.max_rounds = spec.max_rounds;
  c.query_budget = q;
  for (std::uint64_t shape = 0; shape < spec.distinct_round_shapes(); ++shape) {
    const RoundEnvelope& env = spec.envelope(shape);
    c.local_memory_bits = std::max({c.local_memory_bits, env.memory_bits, env.recv_bits});
  }
  return c;
}

std::string ProtocolSpec::summary() const {
  RoundEnvelope worst;
  for (std::uint64_t r = 0; r < distinct_round_shapes(); ++r) {
    const RoundEnvelope& e = envelope(r == prologue.size() ? max_rounds : r);
    worst.memory_bits = std::max(worst.memory_bits, e.memory_bits);
    worst.oracle_queries = std::max(worst.oracle_queries, e.oracle_queries);
    worst.fan_in = std::max(worst.fan_in, e.fan_in);
    worst.fan_out = std::max(worst.fan_out, e.fan_out);
  }
  std::ostringstream os;
  os << protocol << ": m=" << machines << " rounds<=" << max_rounds << " mem<="
     << worst.memory_bits << "b queries<=" << worst.oracle_queries
     << (clamps_queries_to_budget ? " (clamped to q)" : "") << " fan-in<=" << worst.fan_in
     << " fan-out<=" << worst.fan_out << (needs_oracle ? " oracle" : " plain-model");
  return os.str();
}

ProtocolSpec ProtocolSpec::with_authentication(std::uint64_t tag_bits) const {
  ProtocolSpec spec = *this;
  auto bump_traffic = [tag_bits](RoundEnvelope& e) {
    e.sent_bits += e.fan_out * tag_bits;
    e.recv_bits += e.fan_in * tag_bits;
    if (e.fan_out > 0 || e.max_message_bits > 0) e.max_message_bits += tag_bits;
  };
  // Round-start memory at round r is the inbox union of round r-1's tagged
  // deliveries; round 0 starts from the untagged input partition.
  std::uint64_t prev_fan_in = 0;
  for (RoundEnvelope& e : spec.prologue) {
    e.memory_bits += prev_fan_in * tag_bits;
    prev_fan_in = e.fan_in;
    bump_traffic(e);
  }
  // `steady` bounds every round past the prologue; its incoming fan-in is
  // the last prologue round's (first steady round) or its own (later ones).
  std::uint64_t steady_incoming = std::max(prev_fan_in, spec.steady.fan_in);
  if (spec.prologue.empty() && spec.max_rounds <= 1) steady_incoming = 0;  // only round 0
  spec.steady.memory_bits += steady_incoming * tag_bits;
  bump_traffic(spec.steady);
  return spec;
}

std::uint64_t effective_query_bound(const ProtocolSpec& spec, const RoundEnvelope& env,
                                    const mpc::MpcConfig& config) {
  if (spec.clamps_queries_to_budget) {
    return std::min(env.oracle_queries, config.query_budget);
  }
  return env.oracle_queries;
}

namespace {

Diagnostic make_diag(ViolationKind kind, std::uint64_t round, std::uint64_t machine,
                     std::uint64_t value, std::uint64_t limit, const std::string& message) {
  Diagnostic d;
  d.kind = kind;
  d.round = round;
  d.machine = machine;
  d.value = value;
  d.limit = limit;
  d.message = message;
  return d;
}

/// Static checks for one round shape. `round` is the concrete round index
/// used for provenance (for the steady-state shape, the first steady round).
void check_round(const ProtocolSpec& spec, const RoundEnvelope& env, std::uint64_t round,
                 const mpc::MpcConfig& config, AnalysisReport& report) {
  if (env.memory_bits > config.local_memory_bits) {
    report.violations.push_back(make_diag(
        ViolationKind::kMemory, round, env.witness_machine, env.memory_bits,
        config.local_memory_bits,
        "declared round-start memory " + std::to_string(env.memory_bits) + " bits > s=" +
            std::to_string(config.local_memory_bits)));
  }
  if (env.recv_bits > config.local_memory_bits) {
    report.violations.push_back(make_diag(
        ViolationKind::kInboxCapacity, round, env.witness_machine, env.recv_bits,
        config.local_memory_bits,
        "declared delivery of " + std::to_string(env.recv_bits) + " bits (fan-in " +
            std::to_string(env.fan_in) + ") > s=" + std::to_string(config.local_memory_bits)));
  }
  std::uint64_t queries = effective_query_bound(spec, env, config);
  if (queries > config.query_budget) {
    report.violations.push_back(make_diag(
        ViolationKind::kQueryBudget, round, env.witness_machine, queries, config.query_budget,
        "declared " + std::to_string(queries) + " oracle queries > q=" +
            std::to_string(config.query_budget)));
  }
}

}  // namespace

namespace {

/// Compare one pair of round shapes for dominance; `round` is provenance.
void check_round_dominance(const RoundEnvelope& in, const RoundEnvelope& out, std::uint64_t round,
                           AnalysisReport& report) {
  auto expect = [&](ViolationKind kind, std::uint64_t inner_value, std::uint64_t outer_value,
                    const char* what) {
    if (inner_value <= outer_value) return;
    report.violations.push_back(make_diag(
        kind, round, in.witness_machine, inner_value, outer_value,
        std::string("inner spec ") + what + " " + std::to_string(inner_value) +
            " exceeds outer bound " + std::to_string(outer_value)));
  };
  expect(ViolationKind::kMemory, in.memory_bits, out.memory_bits, "memory bits");
  expect(ViolationKind::kQueryBudget, in.oracle_queries, out.oracle_queries, "oracle queries");
  expect(ViolationKind::kFanOut, in.fan_out, out.fan_out, "fan-out");
  expect(ViolationKind::kFanIn, in.fan_in, out.fan_in, "fan-in");
  expect(ViolationKind::kSentBits, in.sent_bits, out.sent_bits, "sent bits");
  expect(ViolationKind::kInboxCapacity, in.recv_bits, out.recv_bits, "recv bits");
  expect(ViolationKind::kMessageSize, in.max_message_bits, out.max_message_bits, "message bits");
}

}  // namespace

AnalysisReport check_spec_dominance(const ProtocolSpec& inner, const ProtocolSpec& outer) {
  if (inner.machines == 0) {
    throw std::invalid_argument("check_spec_dominance: malformed inner spec (zero machines): " +
                                inner.protocol);
  }
  if (outer.machines == 0) {
    throw std::invalid_argument("check_spec_dominance: malformed outer spec (zero machines): " +
                                outer.protocol);
  }

  AnalysisReport report;
  report.protocol = inner.protocol + " <= " + outer.protocol;

  if (inner.machines > outer.machines) {
    report.violations.push_back(make_diag(
        ViolationKind::kRouting, 0, inner.max_destination(), inner.machines, outer.machines,
        "inner spec addresses " + std::to_string(inner.machines) + " machines but outer declares " +
            std::to_string(outer.machines)));
  }
  if (inner.max_rounds > outer.max_rounds) {
    report.violations.push_back(make_diag(
        ViolationKind::kRoundCount, outer.max_rounds, 0, inner.max_rounds, outer.max_rounds,
        "inner spec declares " + std::to_string(inner.max_rounds) + " rounds but outer declares " +
            std::to_string(outer.max_rounds)));
  }
  if (inner.needs_oracle && !outer.needs_oracle) {
    report.violations.push_back(
        make_diag(ViolationKind::kOracleMissing, 0, 0, 0, 0,
                  "inner spec needs an oracle but the outer spec is plain-model"));
  }

  // Compare every distinct shape pair: each round covered by either prologue,
  // plus one steady-vs-steady comparison past both prologues. Clamp to the
  // rounds the inner spec can actually run.
  const std::uint64_t shapes =
      std::max<std::uint64_t>(inner.prologue.size(), outer.prologue.size());
  const std::uint64_t rounds_to_check = std::min(shapes, inner.max_rounds);
  for (std::uint64_t r = 0; r < rounds_to_check; ++r) {
    check_round_dominance(inner.envelope(r), outer.envelope(r), r, report);
  }
  if (inner.max_rounds > shapes) {
    check_round_dominance(inner.steady, outer.steady, shapes, report);
  }
  return report;
}

AnalysisReport check_spec(const ProtocolSpec& spec, const mpc::MpcConfig& config) {
  if (spec.machines == 0) {
    throw std::invalid_argument("check_spec: malformed spec (zero machines): " + spec.protocol);
  }
  if (spec.max_rounds == 0) {
    throw std::invalid_argument("check_spec: malformed spec (zero rounds): " + spec.protocol);
  }

  AnalysisReport report;
  report.protocol = spec.protocol;

  // Routing: every destination the protocol may address must exist.
  if (spec.machines > config.machines) {
    report.violations.push_back(make_diag(
        ViolationKind::kRouting, 0, spec.max_destination(), spec.max_destination(),
        config.machines,
        "protocol addresses machine " + std::to_string(spec.max_destination()) + " but m=" +
            std::to_string(config.machines) + " (destinations must be < m)"));
  }

  // Round-count blowup: the declared R must fit under the configured cap.
  if (spec.max_rounds > config.max_rounds) {
    report.violations.push_back(make_diag(
        ViolationKind::kRoundCount, config.max_rounds, 0, spec.max_rounds, config.max_rounds,
        "declared round count " + std::to_string(spec.max_rounds) + " > max_rounds=" +
            std::to_string(config.max_rounds)));
  }

  // Oracle availability: a Definition 2.2 protocol under q=0 can never issue
  // the queries it declares (budget-adaptive ones would stall forever).
  if (spec.needs_oracle && config.query_budget == 0) {
    report.violations.push_back(
        make_diag(ViolationKind::kOracleMissing, 0, 0, 0, 0,
                  "protocol requires an oracle but the config grants q=0 queries per round"));
  }

  // Per-round envelopes: each prologue round, then the steady state once
  // (provenance: the first round the steady envelope governs).
  std::uint64_t rounds_to_check = std::min<std::uint64_t>(spec.prologue.size(), spec.max_rounds);
  for (std::uint64_t r = 0; r < rounds_to_check; ++r) {
    check_round(spec, spec.prologue[r], r, config, report);
  }
  if (spec.max_rounds > spec.prologue.size()) {
    check_round(spec, spec.steady, spec.prologue.size(), config, report);
  }

  return report;
}

}  // namespace mpch::analysis
