#include "strategies/colluding.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/serialize.hpp"

namespace mpch::strategies {

ColludingStrategy::ColludingStrategy(const core::LineParams& params, OwnershipPlan plan)
    : params_(params), codec_(params), plan_(std::move(plan)), machines_(plan_.machines()) {}

std::vector<util::BitString> ColludingStrategy::make_initial_memory(
    const core::LineInput& input) const {
  std::vector<util::BitString> shares;
  shares.reserve(machines_);
  for (std::uint64_t j = 0; j < machines_; ++j) {
    BlockSet set(params_);
    for (std::uint64_t b : plan_.owned_by(j)) set.add(b, input.block(b));
    util::BitWriter w;
    w.write_uint(static_cast<std::uint64_t>(PayloadTag::kBlocks), kTagBits);
    w.write_bits(set.encode());
    shares.push_back(w.take());
  }
  return shares;
}

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

ColludingStrategy::ParsedInbox ColludingStrategy::parse_inbox(
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
      Frontier f = Frontier::decode(params_, body);
      // Keep the furthest copy (all advancing machines compute the same
      // chain, so copies only differ if one machine advanced further).
      if (!out.has_frontier || f.next_index > out.frontier.next_index) out.frontier = f;
      out.has_frontier = true;
    } else {
      throw std::invalid_argument("ColludingStrategy: unknown payload tag");
    }
  }
  return out;
}

void ColludingStrategy::run_machine(mpc::MachineIo& io, hash::CountingOracle* oracle,
                                    const mpc::SharedTape& /*tape*/, mpc::RoundTrace& trace) {
  if (oracle == nullptr) throw std::invalid_argument("ColludingStrategy requires an oracle");
  ParsedInbox inbox = parse_inbox(*io.inbox);

  if (io.round == 0 && !inbox.has_frontier) {
    // Public bootstrap: everyone knows ℓ_1 = 1, r_1 = 0^u.
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
      util::BitString query = codec_.encode_query(f.next_index, *inbox.blocks->find(f.ell), f.r);
      last_answer = oracle->query(query);
      have_answer = true;
      core::LineAnswer a = codec_.decode_answer(last_answer);
      f.next_index += 1;
      f.ell = a.ell;
      f.r = a.r;
      ++advanced;
    }

    if (f.next_index > params_.w && have_answer) {
      io.output = last_answer;
    } else if (advanced > 0 || io.round == 0) {
      // Broadcast the (possibly unchanged) frontier to everyone; machines
      // that could not advance stay silent to avoid flooding stale copies.
      util::BitWriter w;
      w.write_uint(static_cast<std::uint64_t>(PayloadTag::kFrontier), kTagBits);
      w.write_bits(f.encode(params_));
      util::BitString payload = w.take();
      for (std::uint64_t j = 0; j < machines_; ++j) io.send(j, payload);
    }
  }
  trace.annotate("advance", advanced);

  if (inbox.blocks && !io.output.has_value()) {
    io.send(io.machine, inbox.blocks_payload);
  }
}

}  // namespace mpch::strategies
