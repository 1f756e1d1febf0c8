#include "hash/oracle_transcript.hpp"

#include <algorithm>
#include <functional>
#include <unordered_set>

namespace mpch::hash {

void OracleTranscript::sort_canonical() {
  std::lock_guard<std::mutex> lock(mu_);
  if (canonical_) return;
  std::sort(records_.begin(), records_.end(), canonical_less);
  // A log with equal keys (CountingOracle never writes one) stays
  // non-canonical, so every later call still sorts it.
  canonical_ = std::adjacent_find(records_.begin(), records_.end(),
                                 std::not_fn(canonical_less)) == records_.end();
}

std::vector<QueryRecord> OracleTranscript::canonical_records() const {
  std::vector<QueryRecord> out;
  bool canonical = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = records_;
    canonical = canonical_;
  }
  if (!canonical) std::sort(out.begin(), out.end(), canonical_less);
  return out;
}

void OracleTranscript::restore(std::vector<QueryRecord> records) {
  std::lock_guard<std::mutex> lock(mu_);
  records_ = std::move(records);
  canonical_ = std::adjacent_find(records_.begin(), records_.end(),
                                 std::not_fn(canonical_less)) == records_.end();
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
