// guess_ahead.hpp — the Monte-Carlo harness for Lemma 3.3 / Lemma A.7.
//
// Both lemmas bound the probability that an algorithm "successfully queries
// [the correct entry e] given it hasn't queried the previous entry e'": the
// only unknown in e is the u-bit value r produced by the previous oracle
// answer, so each guess hits with probability exactly 2^{-u}. This harness
// measures that: it draws (RO, X), evaluates the chain, picks a target node
// whose predecessor the adversary "has not queried", and lets the adversary
// form `guesses` candidate queries with everything known except r (which it
// guesses uniformly). Experiments E3 plots the measured hit rate against the
// lemma's bound across u.
#pragma once

#include <cstdint>

#include "core/line.hpp"
#include "core/params.hpp"
#include "core/simline.hpp"
#include "util/rng.hpp"

namespace mpch::strategies {

struct GuessAheadConfig {
  core::LineParams params;
  std::uint64_t guesses_per_trial = 1;  ///< adversary's query budget per trial
  std::uint64_t target_node = 0;        ///< 0 = pick uniformly in [2, w]
  bool simline = false;                 ///< target SimLine (Lemma A.7) vs Line (Lemma 3.3)
};

struct GuessAheadOutcome {
  std::uint64_t trials = 0;
  std::uint64_t hits = 0;  ///< trials where >=1 guess equalled the correct entry

  double hit_rate() const { return trials == 0 ? 0.0 : static_cast<double>(hits) / trials; }
};

/// Run `trials` independent trials through stats::run_boolean_trials; each
/// uses a fresh oracle and input seeded from its trial seed. Deterministic
/// given (config, seed, trials), whatever the thread count.
GuessAheadOutcome run_guess_ahead_trials(const GuessAheadConfig& config, std::uint64_t seed,
                                         std::uint64_t trials);

/// The lemma's per-guess bound: hit probability of a single guess is 2^{-u};
/// `guesses` independent guesses without replacement hit with probability
/// guesses / 2^u (exact, since the adversary can avoid repeating guesses).
double guess_ahead_predicted_rate(const core::LineParams& params, std::uint64_t guesses);

}  // namespace mpch::strategies
