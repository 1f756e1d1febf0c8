#include "strategies/guess_ahead.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

#include "core/codec.hpp"
#include "core/input.hpp"
#include "hash/random_oracle.hpp"
#include "stats/trials.hpp"

namespace mpch::strategies {

GuessAheadOutcome run_guess_ahead_trials(const GuessAheadConfig& config, std::uint64_t seed,
                                         std::uint64_t trials) {
  const core::LineParams& p = config.params;
  if (p.w < 2) throw std::invalid_argument("guess_ahead: need w >= 2");

  // One trial: a fresh oracle and input seeded from `trial_seed`.
  auto trial = [&](std::uint64_t trial_seed) {
    util::Rng trial_rng(trial_seed);
    hash::LazyRandomOracle oracle(p.n, p.n, trial_seed);
    core::LineInput input = core::LineInput::random(p, trial_rng);

    // The adversary targets node `j+1` without having queried node j; the
    // unknown is r_{j+1}, uniform over 2^u values conditioned on everything
    // the adversary has seen (Lemma 3.3's lazy-sampling argument).
    std::uint64_t target =
        config.target_node != 0 ? config.target_node : 2 + trial_rng.next_below(p.w - 1);

    // Only nodes 1..target are evaluated: the chain draws nothing from
    // trial_rng, so stopping early changes no guess.
    util::BitString correct_entry;
    util::BitString known_x;
    if (config.simline) {
      core::SimLineFunction f(p);
      core::SimLineChain chain = f.evaluate_chain(oracle, input, target);
      const auto& node = chain.nodes.at(target - 1);
      correct_entry = node.query;
      known_x = input.block(node.block);  // schedule is public: adversary knows x
    } else {
      core::LineFunction f(p);
      core::LineChain chain = f.evaluate_chain(oracle, input, target);
      const auto& node = chain.nodes.at(target - 1);
      correct_entry = node.query;
      known_x = input.block(node.ell);  // charitably grant even ℓ to the adversary
    }

    // Guess r uniformly without replacement (the strongest guessing
    // strategy); enumerate when the budget covers the domain.
    bool hit = false;
    std::unordered_set<std::uint64_t> tried;
    core::LineCodec line_codec(p);
    core::SimLineCodec sim_codec(p);
    std::uint64_t domain = p.u >= 64 ? UINT64_MAX : (1ULL << p.u);
    std::uint64_t budget = std::min<std::uint64_t>(config.guesses_per_trial, domain);
    for (std::uint64_t g = 0; g < budget && !hit; ++g) {
      std::uint64_t r_guess_val;
      do {
        r_guess_val = trial_rng.next_below(domain);
      } while (!tried.insert(r_guess_val).second);
      util::BitString r_guess = util::BitString(p.u);
      r_guess.set_uint(0, std::min<std::uint64_t>(p.u, 64), r_guess_val);
      util::BitString attempt = config.simline
                                    ? sim_codec.encode_query(known_x, r_guess)
                                    : line_codec.encode_query(target, known_x, r_guess);
      if (attempt == correct_entry) hit = true;
    }
    return hit;
  };
  return {trials, stats::run_boolean_trials(trials, seed, trial).successes};
}

double guess_ahead_predicted_rate(const core::LineParams& params, std::uint64_t guesses) {
  if (params.u >= 64) return 0.0;
  double domain = static_cast<double>(1ULL << params.u);
  return std::min(1.0, static_cast<double>(guesses) / domain);
}

}  // namespace mpch::strategies
