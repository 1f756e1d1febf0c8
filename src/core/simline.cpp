#include "core/simline.hpp"

namespace mpch::core {

std::vector<util::BitString> SimLineChain::all_correct_queries() const {
  std::vector<util::BitString> out;
  out.reserve(nodes.size());
  for (const auto& node : nodes) out.push_back(node.query);
  return out;
}

util::BitString SimLineFunction::evaluate(hash::RandomOracle& oracle, const LineInput& input,
                                          ram::RamMeter* meter) const {
  if (meter != nullptr) {
    meter->allocate_bits(params_.input_bits());
    meter->allocate_bits(params_.u + params_.n);
  }

  util::BitString r(params_.u);  // r_1 = 0^u
  util::BitString answer;
  for (std::uint64_t i = 1; i <= params_.w; ++i) {
    util::BitString query = codec_.encode_query(input.block(scheduled_block(i)), r);
    answer = oracle.query(query);
    if (meter != nullptr) {
      meter->charge_query();
      meter->charge_ops(3);
    }
    r = codec_.decode_answer(answer).r;
  }

  if (meter != nullptr) {
    meter->free_bits(params_.input_bits());
    meter->free_bits(params_.u + params_.n);
  }
  return answer;
}

SimLineChain SimLineFunction::evaluate_chain(hash::RandomOracle& oracle, const LineInput& input,
                                             std::optional<std::uint64_t> nodes) const {
  const std::uint64_t count = params_.chain_nodes(nodes);
  SimLineChain chain;
  chain.nodes.reserve(count);

  util::BitString r(params_.u);
  for (std::uint64_t i = 1; i <= count; ++i) {
    SimLineChainNode node;
    node.index = i;
    node.block = scheduled_block(i);
    node.r = r;
    node.query = codec_.encode_query(input.block(node.block), r);
    node.answer = oracle.query(node.query);
    r = codec_.decode_answer(node.answer).r;
    chain.nodes.push_back(std::move(node));
  }
  if (count == params_.w) chain.output = chain.nodes.back().answer;
  return chain;
}

}  // namespace mpch::core
