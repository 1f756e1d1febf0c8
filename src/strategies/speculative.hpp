// speculative.hpp — the block-guessing adversary for Line^RO (experiment E8).
//
// Pointer-chasing stalls exactly when the frontier needs an input block the
// carrier does not own. The only way past a stall *within the same round* is
// to guess: the carrier spends oracle budget querying (i, x̂, r_i) for
// candidate block values x̂. Each guess hits the true correct entry with
// probability 2^{-u} (Lemma 3.3's event); with budget q the per-stall escape
// probability is ≈ q·2^{-u}, and with q ≥ 2^u systematic enumeration always
// escapes. This strategy makes the theorem's q < 2^{n/4} side-condition and
// its "u is assumed to be large enough as otherwise, machine may guess it
// locally" remark measurable: rounds collapse when q ≥ 2^u and are untouched
// when u is large.
//
// Verification model: the strategy is *charitably verified* — it is told
// which guess (if any) was correct. A real attacker cannot distinguish the
// correct continuation among its q candidate answers without further
// structure, so measured rounds lower-bound what any real verification
// scheme could achieve; the paper's bound must (and does) survive even this
// charitable adversary at cryptographic u.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>

#include "analysis/protocol_spec.hpp"
#include "core/input.hpp"
#include "core/line.hpp"
#include "mpc/simulation.hpp"
#include "strategies/block_store.hpp"
#include "strategies/pointer_chasing.hpp"

namespace mpch::strategies {

struct SpeculativeConfig {
  std::uint64_t guesses_per_stall = 0;  ///< oracle queries spent per stall
  bool enumerate = false;               ///< guess x̂ = 0,1,2,... instead of randomly
};

class SpeculativeStrategy final : public mpc::MpcAlgorithm,
                                  public analysis::ProtocolSpecProvider {
 public:
  /// `truth` is analysis-side instrumentation for charitable verification
  /// (see file comment); it must outlive the strategy.
  SpeculativeStrategy(const core::LineParams& params, OwnershipPlan plan,
                      SpeculativeConfig config, const core::LineInput& truth);

  void run_machine(mpc::MachineIo& io, hash::CountingOracle* oracle, const mpc::SharedTape& tape,
                   mpc::RoundTrace& trace) override;

  std::string name() const override { return "speculative"; }

  std::vector<util::BitString> make_initial_memory(const core::LineInput& input) const {
    return block_shares(params_, plan_, input);
  }
  std::uint64_t required_local_memory() const { return carrier_memory(params_, plan_); }

  /// Declared envelope: pointer-chasing's shape, with the per-round query
  /// bound inflated to w * max(1, guesses_per_stall) — every node may cost a
  /// full burst of guesses (budget-clamped).
  analysis::ProtocolSpec protocol_spec() const override {
    return carrier_spec(name(), params_, plan_,
                        params_.w * std::max<std::uint64_t>(1, config_.guesses_per_stall));
  }

  /// Total stalls escaped by a correct guess across the run so far.
  std::uint64_t lucky_escapes() const { return lucky_escapes_.load(std::memory_order_relaxed); }

 private:
  core::LineParams params_;
  core::LineCodec codec_;
  OwnershipPlan plan_;
  SpeculativeConfig config_;
  const core::LineInput* truth_;
  // Incremented by machines of a parallel round; relaxed is fine (counter).
  std::atomic<std::uint64_t> lucky_escapes_{0};
  BlockCache block_cache_;
};

}  // namespace mpch::strategies
