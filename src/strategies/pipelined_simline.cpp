#include "strategies/pipelined_simline.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/serialize.hpp"

namespace mpch::strategies {

PipelinedSimLineStrategy::PipelinedSimLineStrategy(const core::LineParams& params,
                                                   OwnershipPlan plan)
    : params_(params), codec_(params), plan_(std::move(plan)) {}

std::vector<util::BitString> PipelinedSimLineStrategy::make_initial_memory(
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

std::uint64_t PipelinedSimLineStrategy::required_local_memory() const {
  return kTagBits + BlockSet::encoded_bits(params_, plan_.max_owned()) + kTagBits +
         Frontier::encoded_bits(params_);
}

std::uint64_t PipelinedSimLineStrategy::predicted_rounds() const {
  // Simulate the hand-off schedule without touching the oracle: starting at
  // node 1, each round covers the maximal run of consecutively owned blocks.
  std::uint64_t rounds = 0;
  std::uint64_t i = 1;
  while (i <= params_.w) {
    std::uint64_t block = (i - 1) % params_.v + 1;
    auto owner = plan_.owner_of(block);
    if (!owner.has_value()) throw std::logic_error("predicted_rounds: uncovered block");
    ++rounds;
    // Advance while this machine owns the scheduled block.
    while (i <= params_.w) {
      std::uint64_t b = (i - 1) % params_.v + 1;
      if (plan_.owner_of(b) != owner) break;
      ++i;
    }
  }
  return rounds;
}

std::uint64_t PipelinedSimLineStrategy::worst_round_advance() const {
  // Same scan as predicted_rounds, keeping the longest run instead of the
  // run count. O(w), like the schedule itself.
  std::uint64_t worst = 0;
  std::uint64_t i = 1;
  while (i <= params_.w) {
    std::uint64_t block = (i - 1) % params_.v + 1;
    auto owner = plan_.owner_of(block);
    if (!owner.has_value()) throw std::logic_error("worst_round_advance: uncovered block");
    std::uint64_t run = 0;
    while (i <= params_.w && plan_.owner_of((i - 1) % params_.v + 1) == owner) {
      ++i;
      ++run;
    }
    worst = std::max(worst, run);
  }
  return worst;
}

analysis::ProtocolSpec PipelinedSimLineStrategy::protocol_spec() const {
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
  env.oracle_queries = worst_round_advance();
  env.fan_out = 2;
  env.fan_in = 2;
  env.sent_bits = blocks_bits + frontier_bits;
  env.recv_bits = blocks_bits + frontier_bits;
  env.max_message_bits = std::max(blocks_bits, frontier_bits);
  env.witness_machine = plan_.heaviest_machine();
  spec.steady = env;
  return spec;
}

PipelinedSimLineStrategy::ParsedInbox PipelinedSimLineStrategy::parse_inbox(
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
      throw std::invalid_argument("PipelinedSimLineStrategy: unknown payload tag");
    }
  }
  return out;
}

void PipelinedSimLineStrategy::run_machine(mpc::MachineIo& io, hash::CountingOracle* oracle,
                                           const mpc::SharedTape& /*tape*/,
                                           mpc::RoundTrace& trace) {
  if (oracle == nullptr) {
    throw std::invalid_argument("PipelinedSimLineStrategy requires an oracle");
  }
  ParsedInbox inbox = parse_inbox(*io.inbox);

  // Bootstrap: node 1 consumes block 1; its owner starts with r_1 = 0^u.
  if (io.round == 0 && !inbox.has_frontier && inbox.blocks && plan_.owner_of(1) == io.machine) {
    inbox.has_frontier = true;
    inbox.frontier.next_index = 1;
    inbox.frontier.ell = 1;  // scheduled block of node 1
    inbox.frontier.r = util::BitString(params_.u);
  }

  std::uint64_t advanced = 0;
  if (inbox.has_frontier && inbox.blocks) {
    Frontier f = inbox.frontier;
    util::BitString last_answer;
    bool have_answer = false;
    while (f.next_index <= params_.w && oracle->remaining_budget() > 0) {
      std::uint64_t block = (f.next_index - 1) % params_.v + 1;
      const util::BitString* x = inbox.blocks->find(block);
      if (x == nullptr) break;
      util::BitString query = codec_.encode_query(*x, f.r);
      last_answer = oracle->query(query);
      have_answer = true;
      f.r = codec_.decode_answer(last_answer).r;
      f.next_index += 1;
      ++advanced;
    }

    if (f.next_index > params_.w && have_answer) {
      io.output = last_answer;
    } else {
      std::uint64_t block = (f.next_index - 1) % params_.v + 1;
      f.ell = block;
      auto owner = plan_.owner_of(block);
      if (!owner.has_value()) {
        throw std::logic_error("PipelinedSimLineStrategy: uncovered block " +
                               std::to_string(block));
      }
      util::BitWriter w;
      w.write_uint(static_cast<std::uint64_t>(PayloadTag::kFrontier), kTagBits);
      w.write_bits(f.encode(params_));
      io.send(*owner, w.take());
    }
  }
  trace.annotate("advance", advanced);

  if (inbox.blocks && !io.output.has_value()) {
    io.send(io.machine, inbox.blocks_payload);
  }
}

}  // namespace mpch::strategies
