// line.hpp — the hard function Line^RO_{n,w,u,v} of Theorem 3.1.
//
//   ℓ_1 = 1, r_1 = 0^u,
//   (ℓ_{i+1}, r_{i+1}, z_{i+1}) := RO(i, x_{ℓ_i}, r_i, 0*)  for i in [w],
//   output := the answer to the last correct query.
//
// The RAM evaluator walks the chain sequentially (the upper-bound side of
// the theorem: time O(T·n), space O(S)), charging a RamMeter. It can also
// emit the full chain trace — the sequence of "correct entries"
// (i, x_{ℓ_i}, r_i) that the lower-bound proof's C-sets are built from.
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

/// One node of the evaluated chain.
struct LineChainNode {
  std::uint64_t index = 0;       ///< i in [1, w]
  std::uint64_t ell = 0;         ///< ℓ_i (input-block index used at node i)
  util::BitString r;             ///< r_i
  util::BitString query;         ///< the correct n-bit query (i, x_{ℓ_i}, r_i, 0*)
  util::BitString answer;        ///< RO(query), parsed into the next node
};

/// Full evaluation trace: nodes 1..w plus the final output.
struct LineChain {
  std::vector<LineChainNode> nodes;
  util::BitString output;  ///< the last oracle answer (ℓ_{w+1}, r_{w+1}, z_{w+1})

  /// The proof's correct-entry set C^{(k)} = {(i, x_{ℓ_i}, r_i) :
  /// k·p < i <= w} as raw n-bit queries, where `stride` is the proof's
  /// per-round advance cap p (log²w in Lemma 3.2, h in Lemma A.2).
  std::vector<util::BitString> correct_entries_after(std::uint64_t k, std::uint64_t stride) const;

  /// All w correct queries in order.
  std::vector<util::BitString> all_correct_queries() const;
};

class LineFunction {
 public:
  explicit LineFunction(const LineParams& params) : params_(params), codec_(params) {}

  /// Evaluate f^RO(x). If `meter` is non-null, charges the RAM cost model
  /// (1 query + O(1) word ops per step; live memory = input + O(n)).
  util::BitString evaluate(hash::RandomOracle& oracle, const LineInput& input,
                           ram::RamMeter* meter = nullptr) const;

  /// Evaluate and keep the whole chain (O(w·n) memory — for analysis, not a
  /// model-respecting RAM run). With `nodes`, evaluate only nodes
  /// 1..*nodes (std::invalid_argument outside [1, w]) and leave `output`
  /// empty unless that is all w of them.
  LineChain evaluate_chain(hash::RandomOracle& oracle, const LineInput& input,
                           std::optional<std::uint64_t> nodes = std::nullopt) const;

  const LineParams& params() const { return params_; }
  const LineCodec& codec() const { return codec_; }

 private:
  LineParams params_;
  LineCodec codec_;
};

}  // namespace mpch::core
