#include "core/line.hpp"

namespace mpch::core {

std::vector<util::BitString> LineChain::correct_entries_after(std::uint64_t k,
                                                              std::uint64_t stride) const {
  std::vector<util::BitString> out;
  for (const auto& node : nodes) {
    if (node.index > k * stride) out.push_back(node.query);
  }
  return out;
}

std::vector<util::BitString> LineChain::all_correct_queries() const {
  std::vector<util::BitString> out;
  out.reserve(nodes.size());
  for (const auto& node : nodes) out.push_back(node.query);
  return out;
}

util::BitString LineFunction::evaluate(hash::RandomOracle& oracle, const LineInput& input,
                                       ram::RamMeter* meter) const {
  // RAM working set: the input (uv bits) plus the current (ℓ, r) and one
  // n-bit answer buffer — O(S) space as Theorem 3.1 requires.
  if (meter != nullptr) {
    meter->allocate_bits(params_.input_bits());            // X resident
    meter->allocate_bits(params_.u + 64 + params_.n);      // r_i, ℓ_i, answer buffer
  }

  std::uint64_t ell = 1;
  util::BitString r(params_.u);  // r_1 = 0^u
  util::BitString answer;
  for (std::uint64_t i = 1; i <= params_.w; ++i) {
    util::BitString query = codec_.encode_query(i, input.block(ell), r);
    answer = oracle.query(query);
    if (meter != nullptr) {
      meter->charge_query();
      meter->charge_ops(4);  // pack, parse, two assignments
    }
    LineAnswer parsed = codec_.decode_answer(answer);
    ell = parsed.ell;
    r = parsed.r;
  }

  if (meter != nullptr) {
    meter->free_bits(params_.input_bits());
    meter->free_bits(params_.u + 64 + params_.n);
  }
  return answer;
}

LineChain LineFunction::evaluate_chain(hash::RandomOracle& oracle, const LineInput& input,
                                       std::optional<std::uint64_t> nodes) const {
  const std::uint64_t count = params_.chain_nodes(nodes);
  LineChain chain;
  chain.nodes.reserve(count);

  std::uint64_t ell = 1;
  util::BitString r(params_.u);
  for (std::uint64_t i = 1; i <= count; ++i) {
    LineChainNode node;
    node.index = i;
    node.ell = ell;
    node.r = r;
    node.query = codec_.encode_query(i, input.block(ell), r);
    node.answer = oracle.query(node.query);
    LineAnswer parsed = codec_.decode_answer(node.answer);
    ell = parsed.ell;
    r = parsed.r;
    chain.nodes.push_back(std::move(node));
  }
  if (count == params_.w) chain.output = chain.nodes.back().answer;
  return chain;
}

}  // namespace mpch::core
