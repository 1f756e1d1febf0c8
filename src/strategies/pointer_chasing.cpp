#include "strategies/pointer_chasing.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/serialize.hpp"

namespace mpch::strategies {

PointerChasingStrategy::PointerChasingStrategy(const core::LineParams& params, OwnershipPlan plan)
    : params_(params), codec_(params), plan_(std::move(plan)) {}

std::vector<util::BitString> PointerChasingStrategy::make_initial_memory(
    const core::LineInput& input) const {
  std::vector<util::BitString> shares;
  shares.reserve(plan_.machines());
  for (std::uint64_t j = 0; j < plan_.machines(); ++j) {
    BlockSet set(params_);
    for (std::uint64_t b : plan_.owned_by(j)) set.add(b, input.block(b));
    util::BitWriter w;
    w.write_uint(static_cast<std::uint64_t>(PayloadTag::kBlocks), kTagBits);
    w.write_bits(set.encode());
    shares.push_back(w.take());
  }
  return shares;
}

std::uint64_t PointerChasingStrategy::required_local_memory() const {
  return kTagBits + BlockSet::encoded_bits(params_, plan_.max_owned()) + kTagBits +
         Frontier::encoded_bits(params_);
}

analysis::ProtocolSpec PointerChasingStrategy::protocol_spec() const {
  const std::uint64_t blocks_bits =
      kTagBits + BlockSet::encoded_bits(params_, plan_.max_owned());
  const std::uint64_t frontier_bits = kTagBits + Frontier::encoded_bits(params_);

  analysis::ProtocolSpec spec;
  spec.protocol = name();
  spec.machines = plan_.machines();
  spec.max_rounds = params_.w;
  spec.needs_oracle = true;
  spec.clamps_queries_to_budget = true;

  analysis::RoundEnvelope env;
  env.memory_bits = blocks_bits + frontier_bits;
  env.oracle_queries = params_.w;  // whole remaining chain, if locally owned
  env.fan_out = 2;                 // blocks-to-self + frontier hand-off
  env.fan_in = 2;                  // own blocks + the single global frontier
  env.sent_bits = blocks_bits + frontier_bits;
  env.recv_bits = blocks_bits + frontier_bits;
  env.max_message_bits = std::max(blocks_bits, frontier_bits);
  env.witness_machine = plan_.heaviest_machine();
  spec.steady = env;
  return spec;
}

PointerChasingStrategy::ParsedInbox PointerChasingStrategy::parse_inbox(
    const std::vector<mpc::Message>& inbox) {
  ParsedInbox out;
  for (const auto& msg : inbox) {
    util::BitReader r(msg.payload);
    auto tag = static_cast<PayloadTag>(r.read_uint(kTagBits));
    if (tag == PayloadTag::kBlocks) {
      out.blocks_payload = msg.payload;
      out.blocks = block_cache_.find_or_decode(msg.payload, [&] {
        return BlockSet::decode(params_, msg.payload.slice(kTagBits, msg.payload.size() - kTagBits));
      });
    } else if (tag == PayloadTag::kFrontier) {
      util::BitString body = msg.payload.slice(kTagBits, msg.payload.size() - kTagBits);
      out.frontier = Frontier::decode(params_, body);
      out.has_frontier = true;
    } else {
      throw std::invalid_argument("PointerChasingStrategy: unknown payload tag");
    }
  }
  return out;
}

void PointerChasingStrategy::run_machine(mpc::MachineIo& io, hash::CountingOracle* oracle,
                                         const mpc::SharedTape& /*tape*/,
                                         mpc::RoundTrace& trace) {
  if (oracle == nullptr) {
    throw std::invalid_argument("PointerChasingStrategy requires an oracle");
  }
  ParsedInbox inbox = parse_inbox(*io.inbox);

  // Round 0: the owner of block ℓ_1 = 1 bootstraps the frontier
  // (ℓ_1 = 1, r_1 = 0^u — public constants, no communication needed).
  if (io.round == 0 && !inbox.has_frontier && inbox.blocks && inbox.blocks->contains(1) &&
      plan_.owner_of(1) == io.machine) {
    inbox.has_frontier = true;
    inbox.frontier.next_index = 1;
    inbox.frontier.ell = 1;
    inbox.frontier.r = util::BitString(params_.u);
  }

  std::uint64_t advanced = 0;
  if (inbox.has_frontier && inbox.blocks) {
    Frontier f = inbox.frontier;
    util::BitString last_answer;
    bool have_answer = false;
    while (f.next_index <= params_.w && inbox.blocks->contains(f.ell) &&
           oracle->remaining_budget() > 0) {
      const util::BitString* x = inbox.blocks->find(f.ell);
      util::BitString query = codec_.encode_query(f.next_index, *x, f.r);
      last_answer = oracle->query(query);
      have_answer = true;
      core::LineAnswer a = codec_.decode_answer(last_answer);
      f.next_index += 1;
      f.ell = a.ell;
      f.r = a.r;
      ++advanced;
    }

    if (f.next_index > params_.w && have_answer) {
      // Finished: the output is the answer to the last correct query.
      io.output = last_answer;
    } else if (f.next_index > params_.w) {
      // Frontier arrived already complete (w advanced in an earlier round) —
      // cannot happen because the finisher outputs immediately, but guard.
      throw std::logic_error("PointerChasingStrategy: finished frontier without answer");
    } else {
      // Miss: hand the frontier to an owner of the needed block.
      auto owner = plan_.owner_of(f.ell);
      if (!owner.has_value()) {
        throw std::logic_error("PointerChasingStrategy: block " + std::to_string(f.ell) +
                               " has no owner; the plan must cover [1, v]");
      }
      util::BitWriter w;
      w.write_uint(static_cast<std::uint64_t>(PayloadTag::kFrontier), kTagBits);
      w.write_bits(f.encode(params_));
      io.send(*owner, w.take());
    }
  }
  trace.annotate("advance", advanced);

  // Persist the block set (memory survives only through messages).
  if (inbox.blocks && !io.output.has_value()) {
    io.send(io.machine, inbox.blocks_payload);
  }
}

}  // namespace mpch::strategies
