#include "strategies/colluding.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace mpch::strategies {

ColludingStrategy::ColludingStrategy(const core::LineParams& params, OwnershipPlan plan)
    : params_(params),
      codec_(params),
      plan_(std::move(plan)),
      machines_(plan_.machines()),
      block_cache_(machines_, 1) {}

std::uint64_t ColludingStrategy::required_local_memory() const {
  return kTagBits + BlockSet::encoded_bits(params_, plan_.max_owned()) +
         machines_ * (kTagBits + Frontier::encoded_bits(params_));
}

analysis::ProtocolSpec ColludingStrategy::protocol_spec() const {
  const std::uint64_t blocks_bits =
      kTagBits + BlockSet::encoded_bits(params_, plan_.max_owned());
  const std::uint64_t frontier_bits = kTagBits + Frontier::encoded_bits(params_);

  analysis::ProtocolSpec spec;
  spec.protocol = name();
  spec.machines = machines_;
  spec.max_rounds = params_.w;
  spec.needs_oracle = true;
  spec.clamps_queries_to_budget = true;

  analysis::RoundEnvelope env;
  env.memory_bits = required_local_memory();
  env.oracle_queries = params_.w;
  env.fan_out = 1 + machines_;  // blocks-to-self + frontier broadcast to all m
  env.fan_in = 1 + machines_;   // own blocks + a frontier copy from every machine
  env.sent_bits = blocks_bits + machines_ * frontier_bits;
  env.recv_bits = required_local_memory();
  env.max_message_bits = std::max(blocks_bits, frontier_bits);
  env.witness_machine = plan_.heaviest_machine();
  spec.steady = env;
  return spec;
}

void ColludingStrategy::run_machine(mpc::MachineIo& io, hash::CountingOracle* oracle,
                                    const mpc::SharedTape& /*tape*/, mpc::RoundTrace& trace) {
  if (oracle == nullptr) throw std::invalid_argument("ColludingStrategy requires an oracle");
  LineInbox inbox = parse_line_inbox(params_, block_cache_, io.machine, *io.inbox);

  // Public bootstrap: everyone knows ℓ_1 = 1, r_1 = 0^u.
  if (io.round == 0 && !inbox.frontier) inbox.frontier = Frontier::start(params_);

  std::uint64_t advanced = 0;
  if (inbox.frontier && inbox.blocks) {
    Frontier f = *inbox.frontier;
    util::BitString last_answer;
    advanced = walk_owned(codec_, *inbox.blocks, *oracle, f, last_answer);
    if (f.next_index > params_.w && advanced > 0) {
      io.output = std::move(last_answer);
    } else if (advanced > 0 || io.round == 0) {
      // Broadcast the (possibly unchanged) frontier to everyone; machines
      // that could not advance stay silent to avoid flooding stale copies.
      util::BitString payload = frontier_message(params_, f);
      for (std::uint64_t j = 0; j < machines_; ++j) io.send(j, payload);
    }
  }
  trace.annotate("advance", advanced);

  if (inbox.blocks && !io.output.has_value()) {
    io.send(io.machine, *inbox.blocks_payload);
  }
}

}  // namespace mpch::strategies
