#include "strategies/pointer_chasing.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace mpch::strategies {

std::uint64_t walk_owned(const core::LineCodec& codec, const BlockSet& blocks,
                         hash::CountingOracle& oracle, Frontier& f,
                         util::BitString& last_answer) {
  std::uint64_t advanced = 0;
  while (f.next_index <= codec.params().w && oracle.remaining_budget() > 0) {
    const util::BitString* x = blocks.find(f.ell);
    if (x == nullptr) break;
    last_answer = oracle.query(codec.encode_query(f.next_index, *x, f.r));
    core::LineAnswer a = codec.decode_answer(last_answer);
    f.next_index += 1;
    f.ell = a.ell;
    f.r = std::move(a.r);
    ++advanced;
  }
  return advanced;
}

void finish_or_hand_off(mpc::MachineIo& io, const core::LineParams& params,
                        const OwnershipPlan& plan, const Frontier& f, std::uint64_t advanced,
                        util::BitString last_answer) {
  if (f.next_index <= params.w) {
    io.send(plan.owner_of(f.ell), frontier_message(params, f));
  } else if (advanced > 0) {
    io.output = std::move(last_answer);
  } else {
    // The finisher outputs in the round it passes node w, so a frontier
    // never arrives already complete.
    throw std::logic_error("carrier: finished frontier without answer");
  }
}

std::uint64_t carrier_memory(const core::LineParams& params, const OwnershipPlan& plan) {
  return kTagBits + BlockSet::encoded_bits(params, plan.max_owned()) + kTagBits +
         Frontier::encoded_bits(params);
}

analysis::ProtocolSpec carrier_spec(std::string protocol, const core::LineParams& params,
                                    const OwnershipPlan& plan, std::uint64_t oracle_queries) {
  const std::uint64_t blocks_bits = kTagBits + BlockSet::encoded_bits(params, plan.max_owned());
  const std::uint64_t frontier_bits = kTagBits + Frontier::encoded_bits(params);

  analysis::ProtocolSpec spec;
  spec.protocol = std::move(protocol);
  spec.machines = plan.machines();
  spec.max_rounds = params.w;
  spec.needs_oracle = true;
  spec.clamps_queries_to_budget = true;

  analysis::RoundEnvelope env;
  env.memory_bits = blocks_bits + frontier_bits;
  env.oracle_queries = oracle_queries;
  env.fan_out = 2;  // blocks-to-self + frontier hand-off
  env.fan_in = 2;   // own blocks + the single global frontier
  env.sent_bits = blocks_bits + frontier_bits;
  env.recv_bits = blocks_bits + frontier_bits;
  env.max_message_bits = std::max(blocks_bits, frontier_bits);
  env.witness_machine = plan.heaviest_machine();
  spec.steady = env;
  return spec;
}

PointerChasingStrategy::PointerChasingStrategy(const core::LineParams& params, OwnershipPlan plan)
    : params_(params), codec_(params), plan_(std::move(plan)), block_cache_(plan_.machines(), 1) {}

void PointerChasingStrategy::run_machine(mpc::MachineIo& io, hash::CountingOracle* oracle,
                                         const mpc::SharedTape& /*tape*/,
                                         mpc::RoundTrace& trace) {
  if (oracle == nullptr) {
    throw std::invalid_argument("PointerChasingStrategy requires an oracle");
  }
  LineInbox inbox = parse_line_inbox(params_, block_cache_, io.machine, *io.inbox);

  // Round 0: the owner of block ℓ_1 = 1 bootstraps the frontier.
  if (io.round == 0 && !inbox.frontier && inbox.blocks && inbox.blocks->contains(1) &&
      plan_.owner_of(1) == io.machine) {
    inbox.frontier = Frontier::start(params_);
  }

  std::uint64_t advanced = 0;
  if (inbox.frontier && inbox.blocks) {
    Frontier f = *inbox.frontier;
    util::BitString last_answer;
    advanced = walk_owned(codec_, *inbox.blocks, *oracle, f, last_answer);
    finish_or_hand_off(io, params_, plan_, f, advanced, std::move(last_answer));
  }
  trace.annotate("advance", advanced);

  // Persist the block set (memory survives only through messages).
  if (inbox.blocks && !io.output.has_value()) {
    io.send(io.machine, *inbox.blocks_payload);
  }
}

}  // namespace mpch::strategies
