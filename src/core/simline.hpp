// simline.hpp — the warm-up function SimLine^RO_{n,w,u,v} of Appendix A.
//
//   r_1 = 0^u,
//   (r_{i+1}, z_{i+1}) := RO(x_{i mod v}, r_i, 0*)  for i in [w],
//   output := the last answer.
//
// Because the input schedule is the *fixed, public* sequence i mod v, a
// machine holding a window of consecutive x blocks can advance through the
// whole window in one round — which is exactly why SimLine is only Ω(T·u/s)
// hard (Theorem A.1) while Line's oracle-chosen ℓ_i schedule pushes the
// bound to Ω̃(T) (Theorem 3.1).
//
// Indexing note: the paper writes x_{i mod v} with blocks named x_1..x_v; we
// use block((i-1) mod v + 1) so that i = 1..v touches x_1..x_v in order and
// the schedule has period v, matching the C_j window sets of Lemma A.2.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/codec.hpp"
#include "core/input.hpp"
#include "core/params.hpp"
#include "hash/random_oracle.hpp"
#include "ram/ram_meter.hpp"

namespace mpch::core {

struct SimLineChainNode {
  std::uint64_t index = 0;     ///< i in [1, w]
  std::uint64_t block = 0;     ///< the scheduled block index in [1, v]
  util::BitString r;           ///< r_i
  util::BitString query;       ///< (x_{block}, r_i, 0*)
  util::BitString answer;
};

struct SimLineChain {
  std::vector<SimLineChainNode> nodes;
  util::BitString output;

  std::vector<util::BitString> all_correct_queries() const;
};

class SimLineFunction {
 public:
  explicit SimLineFunction(const LineParams& params) : params_(params), codec_(params) {}

  /// The public input schedule: which block node i consumes.
  std::uint64_t scheduled_block(std::uint64_t i) const { return (i - 1) % params_.v + 1; }

  util::BitString evaluate(hash::RandomOracle& oracle, const LineInput& input,
                           ram::RamMeter* meter = nullptr) const;

  /// Evaluate and keep the chain; `nodes` bounds it as in
  /// LineFunction::evaluate_chain.
  SimLineChain evaluate_chain(hash::RandomOracle& oracle, const LineInput& input,
                              std::optional<std::uint64_t> nodes = std::nullopt) const;

  const LineParams& params() const { return params_; }
  const SimLineCodec& codec() const { return codec_; }

 private:
  LineParams params_;
  SimLineCodec codec_;
};

}  // namespace mpch::core
