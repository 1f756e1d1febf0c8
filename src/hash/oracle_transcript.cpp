#include "hash/oracle_transcript.hpp"

#include <stdexcept>
#include <string>
#include <tuple>
#include <unordered_set>

namespace mpch::hash {

namespace {

// The canonical order: strictly by (round, machine, seq).
bool canonical_less(const QueryRecord& a, const QueryRecord& b) {
  return std::tie(a.round, a.machine, a.seq) < std::tie(b.round, b.machine, b.seq);
}

// The key-order violation between `prev` and `next`, for the diagnostic.
std::invalid_argument out_of_order(const char* where, const QueryRecord& prev,
                                   const QueryRecord& next) {
  auto key = [](const QueryRecord& r) {
    return "(" + std::to_string(r.round) + ", " + std::to_string(r.machine) + ", " +
           std::to_string(r.seq) + ")";
  };
  return std::invalid_argument(std::string("OracleTranscript::") + where + ": key " + key(next) +
                               " does not follow " + key(prev) +
                               " (keys must strictly increase by (round, machine, seq))");
}

}  // namespace

void OracleTranscript::push(QueryRecord&& rec) {
  if (!records_.empty() && !canonical_less(records_.back(), rec)) {
    throw out_of_order("record", records_.back(), rec);
  }
  records_.push_back(std::move(rec));
}

void OracleTranscript::append(std::vector<QueryRecord>& batch) {
  for (QueryRecord& rec : batch) push(std::move(rec));
  batch.clear();
}

void OracleTranscript::restore(std::vector<QueryRecord> records) {
  for (std::size_t i = 1; i < records.size(); ++i) {
    if (!canonical_less(records[i - 1], records[i])) {
      throw out_of_order("restore", records[i - 1], records[i]);
    }
  }
  records_ = std::move(records);
}

std::vector<util::BitString> OracleTranscript::queries_of(std::uint64_t machine,
                                                          std::uint64_t round) const {
  std::vector<util::BitString> out;
  for (const auto& r : records_) {
    if (r.machine == machine && r.round == round) out.push_back(r.input);
  }
  return out;
}

std::vector<util::BitString> OracleTranscript::queries_up_to(std::uint64_t round) const {
  std::vector<util::BitString> out;
  for (const auto& r : records_) {
    if (r.round <= round) out.push_back(r.input);
  }
  return out;
}

std::size_t OracleTranscript::intersect_count(
    const std::vector<util::BitString>& transcript_inputs,
    const std::vector<util::BitString>& targets) const {
  // Membership probe only — nothing iterates, so hash order cannot leak
  // into any transcript or wire byte.
  std::unordered_set<util::BitString, util::BitStringHash> seen(  // lint:ordered-exempt
      transcript_inputs.begin(), transcript_inputs.end());
  std::size_t count = 0;
  for (const auto& t : targets) {
    if (seen.count(t)) ++count;
  }
  return count;
}

}  // namespace mpch::hash
