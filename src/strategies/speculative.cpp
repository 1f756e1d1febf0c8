#include "strategies/speculative.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace mpch::strategies {

SpeculativeStrategy::SpeculativeStrategy(const core::LineParams& params, OwnershipPlan plan,
                                         SpeculativeConfig config, const core::LineInput& truth)
    : params_(params),
      codec_(params),
      plan_(std::move(plan)),
      config_(config),
      truth_(&truth),
      block_cache_(plan_.machines(), 1) {}

void SpeculativeStrategy::run_machine(mpc::MachineIo& io, hash::CountingOracle* oracle,
                                      const mpc::SharedTape& tape, mpc::RoundTrace& trace) {
  if (oracle == nullptr) throw std::invalid_argument("SpeculativeStrategy requires an oracle");
  LineInbox inbox = parse_line_inbox(params_, block_cache_, io.machine, *io.inbox);

  if (io.round == 0 && !inbox.frontier && inbox.blocks && plan_.owner_of(1) == io.machine) {
    inbox.frontier = Frontier::start(params_);
  }

  std::uint64_t advanced = 0;
  if (inbox.frontier && inbox.blocks) {
    Frontier f = *inbox.frontier;
    util::BitString last_answer;
    for (;;) {
      // Honest advance while the blocks are local.
      advanced += walk_owned(codec_, *inbox.blocks, *oracle, f, last_answer);
      if (f.next_index > params_.w || oracle->remaining_budget() == 0) break;

      // Stall: spend budget guessing the unowned block x_{ℓ}. The true value
      // is truth_->block(f.ell); per the charitable-verification model we
      // continue from the guess that matches it, if any guess does.
      const util::BitString& target = truth_->block(f.ell);
      bool hit = false;
      std::uint64_t budget =
          std::min<std::uint64_t>(config_.guesses_per_stall, oracle->remaining_budget());
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
        util::BitString answer = oracle->query(codec_.encode_query(f.next_index, guess, f.r));
        if (guess == target) {
          last_answer = std::move(answer);
          hit = true;
          lucky_escapes_.fetch_add(1, std::memory_order_relaxed);
          break;
        }
        if (oracle->remaining_budget() == 0) break;
      }
      if (!hit) break;
      core::LineAnswer a = codec_.decode_answer(last_answer);
      f.next_index += 1;
      f.ell = a.ell;
      f.r = std::move(a.r);
      ++advanced;
    }
    finish_or_hand_off(io, params_, plan_, f, advanced, std::move(last_answer));
  }
  trace.annotate("advance", advanced);

  if (inbox.blocks && !io.output.has_value()) {
    io.send(io.machine, *inbox.blocks_payload);
  }
}

}  // namespace mpch::strategies
