#include "reduce/checker.hpp"

#include <sstream>
#include <stdexcept>

#include "analysis/spec_soundness.hpp"
#include "util/json.hpp"

namespace mpch::reduce {

void SpecCatalog::add(const std::string& name, analysis::ProtocolSpec spec) {
  specs_[name] = std::move(spec);
}

const analysis::ProtocolSpec& SpecCatalog::at(const std::string& name) const {
  auto it = specs_.find(name);
  if (it == specs_.end()) {
    throw std::invalid_argument("unknown spec '" + name + "' (try --list-specs)");
  }
  return it->second;
}

std::string ReductionReport::format() const {
  std::ostringstream os;
  os << reduction.describe() << "\n";
  os << "  transformed: " << transformed.spec.summary() << "\n";
  for (const std::string& note : transformed.notes) os << "  note: " << note << "\n";
  if (floor_rounds != 0) {
    os << "  hardness floor: target declares " << reduction.target << ".rounds and must be >= "
       << floor_rounds << " (theory::bounds): " << (floor_ok ? "PASS" : "FAIL") << "\n";
  }
  os << "  dominance: " << dominance.format();
  return os.str();
}

void ReductionReport::to_json(util::JsonWriter& w) const {
  w.begin_object();
  w.member("name", reduction.name);
  w.member("source", reduction.source);
  w.member("target", reduction.target);
  w.member("term", reduction.term.describe());
  w.member("ok", ok());
  w.member("saturated", transformed.saturated);
  w.member("transformed_summary", transformed.spec.summary());
  w.key("notes").begin_array();
  for (const std::string& note : transformed.notes) w.value(note);
  w.end_array();
  if (floor_rounds != 0) {
    w.member("floor_rounds", floor_rounds);
    w.member("floor_ok", floor_ok);
  }
  w.key("violations").begin_array();
  for (const analysis::Diagnostic& d : dominance.violations) d.to_json(w);
  w.end_array();
  w.end_object();
}

ReductionReport check_reduction(const Reduction& reduction, const SpecCatalog& catalog,
                                std::uint64_t floor_rounds) {
  ReductionReport report;
  report.reduction = reduction;
  const analysis::ProtocolSpec* source = nullptr;
  const analysis::ProtocolSpec* target = nullptr;
  try {
    source = &catalog.at(reduction.source);
    target = &catalog.at(reduction.target);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument("reduction '" + reduction.name + "' (line " +
                                std::to_string(reduction.source_line) + "): " + e.what());
  }

  report.transformed = apply_term(reduction.term, *source);
  // Dominance naming: check_spec_dominance labels its report
  // "inner <= outer"; rename the transformed side so diagnostics read
  // "target <= T(source)".
  analysis::ProtocolSpec outer = report.transformed.spec;
  outer.protocol = "T(" + reduction.source + ")";
  report.dominance = analysis::check_spec_dominance(*target, outer);

  report.floor_rounds = floor_rounds;
  if (floor_rounds != 0 && target->max_rounds < floor_rounds) {
    report.floor_ok = false;
    analysis::Diagnostic d;
    d.kind = analysis::ViolationKind::kRoundCount;
    d.round = 0;
    d.machine = 0;
    d.value = target->max_rounds;
    d.limit = floor_rounds;
    d.message = "target declares " + std::to_string(target->max_rounds) +
                " rounds, below the paper's round floor " + std::to_string(floor_rounds) +
                " for the source problem — the claimed reduction would beat the " +
                "incompressibility bound";
    report.dominance.violations.push_back(d);
  }
  return report;
}

analysis::AnalysisReport cross_check_reduction(const ReductionReport& report,
                                               const mpc::MpcRunResult& result,
                                               const mpc::MpcConfig& config) {
  analysis::ProtocolSpec envelope = report.transformed.spec;
  envelope.protocol =
      "observed(" + report.reduction.target + ") <= T(" + report.reduction.source + ")";
  return analysis::check_soundness(envelope, result, config);
}

}  // namespace mpch::reduce
