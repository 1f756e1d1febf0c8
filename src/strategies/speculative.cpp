#include "strategies/speculative.hpp"

#include <stdexcept>

#include "util/serialize.hpp"

namespace mpch::strategies {

SpeculativeStrategy::SpeculativeStrategy(const core::LineParams& params, OwnershipPlan plan,
                                         SpeculativeConfig config, const core::LineInput& truth)
    : params_(params),
      codec_(params),
      plan_(std::move(plan)),
      config_(config),
      truth_(&truth) {}

std::vector<util::BitString> SpeculativeStrategy::make_initial_memory(
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

std::uint64_t SpeculativeStrategy::required_local_memory() const {
  return kTagBits + BlockSet::encoded_bits(params_, plan_.max_owned()) + kTagBits +
         Frontier::encoded_bits(params_);
}

analysis::ProtocolSpec SpeculativeStrategy::protocol_spec() const {
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
  env.oracle_queries =
      params_.w * std::max<std::uint64_t>(1, config_.guesses_per_stall);
  env.fan_out = 2;
  env.fan_in = 2;
  env.sent_bits = blocks_bits + frontier_bits;
  env.recv_bits = blocks_bits + frontier_bits;
  env.max_message_bits = std::max(blocks_bits, frontier_bits);
  env.witness_machine = plan_.heaviest_machine();
  spec.steady = env;
  return spec;
}

SpeculativeStrategy::ParsedInbox SpeculativeStrategy::parse_inbox(
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
      throw std::invalid_argument("SpeculativeStrategy: unknown payload tag");
    }
  }
  return out;
}

void SpeculativeStrategy::run_machine(mpc::MachineIo& io, hash::CountingOracle* oracle,
                                      const mpc::SharedTape& tape, mpc::RoundTrace& trace) {
  if (oracle == nullptr) throw std::invalid_argument("SpeculativeStrategy requires an oracle");
  ParsedInbox inbox = parse_inbox(*io.inbox);

  if (io.round == 0 && !inbox.has_frontier && inbox.blocks && plan_.owner_of(1) == io.machine) {
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
    bool stuck = false;

    while (!stuck && f.next_index <= params_.w && oracle->remaining_budget() > 0) {
      const util::BitString* x = inbox.blocks->find(f.ell);
      util::BitString x_used;
      if (x != nullptr) {
        x_used = *x;  // honest advance: the block is local
      } else {
        // Stall: spend budget guessing the unowned block x_{ℓ}. The true
        // value is truth_->block(f.ell); per the charitable-verification
        // model we continue from the guess that matches it, if any guess
        // does.
        const util::BitString& target = truth_->block(f.ell);
        bool hit = false;
        std::uint64_t budget = std::min<std::uint64_t>(config_.guesses_per_stall,
                                                       oracle->remaining_budget());
        for (std::uint64_t g = 0; g < budget; ++g) {
          util::BitString guess;
          if (config_.enumerate) {
            if (params_.u <= 63 && g >= (1ULL << params_.u)) break;  // domain exhausted
            guess = util::BitString(params_.u);
            guess.set_uint(0, std::min<std::uint64_t>(params_.u, 64), g);
          } else {
            // Shared-tape randomness: position keyed by (round, machine,
            // node, attempt) — deterministic, stateless.
            std::uint64_t word_pos =
                (io.round * 0x9E3779B9ULL + io.machine) * 0x85EBCA6BULL + f.next_index * 631 + g;
            guess = util::BitString(params_.u);
            for (std::uint64_t bpos = 0; bpos < params_.u; bpos += 64) {
              std::uint64_t len = std::min<std::uint64_t>(64, params_.u - bpos);
              guess.set_uint(bpos, len, tape.word(word_pos + bpos / 64) >> (64 - len));
            }
          }
          // The guess costs a real oracle query whether or not it hits.
          util::BitString query = codec_.encode_query(f.next_index, guess, f.r);
          util::BitString answer = oracle->query(query);
          if (guess == target) {
            last_answer = answer;
            have_answer = true;
            hit = true;
            lucky_escapes_.fetch_add(1, std::memory_order_relaxed);
            break;
          }
          if (oracle->remaining_budget() == 0) break;
        }
        if (!hit) {
          stuck = true;
          break;
        }
        x_used = target;
        // The oracle answer for the hit was already consumed above; parse it
        // below through the common path by re-deriving from last_answer.
        core::LineAnswer a = codec_.decode_answer(last_answer);
        f.next_index += 1;
        f.ell = a.ell;
        f.r = a.r;
        ++advanced;
        continue;
      }

      util::BitString query = codec_.encode_query(f.next_index, x_used, f.r);
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
    } else {
      auto owner = plan_.owner_of(f.ell);
      if (!owner.has_value()) {
        throw std::logic_error("SpeculativeStrategy: uncovered block " + std::to_string(f.ell));
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
