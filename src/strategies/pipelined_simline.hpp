// pipelined_simline.hpp — the window-walking MPC strategy for SimLine^RO.
//
// SimLine's input schedule is the fixed public sequence x_{(i-1) mod v + 1},
// so ownership can be laid out in contiguous windows: the machine owning
// blocks [a, a+b) advances through all b of its nodes in ONE round, then
// hands the frontier to the owner of the next window. Rounds ≈ w / b where
// b ≈ s/u blocks fit in local memory — i.e. Θ(w·u/s), matching Theorem
// A.1's Ω(T·u/s) lower bound and showing the warm-up bound is tight. The
// contrast between this strategy's round count and pointer-chasing on Line
// (E1 vs E2) is the paper's core message rendered as data.
#pragma once

#include <cstdint>

#include "analysis/protocol_spec.hpp"
#include "core/simline.hpp"
#include "mpc/simulation.hpp"
#include "strategies/block_store.hpp"
#include "strategies/pointer_chasing.hpp"  // carrier_spec, finish_or_hand_off

namespace mpch::strategies {

class PipelinedSimLineStrategy final : public mpc::MpcAlgorithm,
                                       public analysis::ProtocolSpecProvider {
 public:
  /// Plan must be a `windows` plan; the strategy exploits contiguity.
  PipelinedSimLineStrategy(const core::LineParams& params, OwnershipPlan plan);

  void run_machine(mpc::MachineIo& io, hash::CountingOracle* oracle, const mpc::SharedTape& tape,
                   mpc::RoundTrace& trace) override;

  std::string name() const override { return "pipelined-simline"; }

  std::vector<util::BitString> make_initial_memory(const core::LineInput& input) const {
    return block_shares(params_, plan_, input);
  }
  std::uint64_t required_local_memory() const { return carrier_memory(params_, plan_); }

  /// Closed-form round count this strategy achieves for the given plan:
  /// the number of window hand-offs to cover w nodes (exact, deterministic —
  /// tested against measured rounds).
  std::uint64_t predicted_rounds() const;

  /// Longest run of consecutively-owned scheduled blocks — the per-round
  /// advance (and query) worst case the spec declares.
  std::uint64_t worst_round_advance() const;

  /// Declared envelope: the carrier's, whose per-round query bound is the
  /// longest owned run in the public schedule; the declared round count is w
  /// (sound for any q >= 1 — the achieved count is predicted_rounds() when q
  /// covers a full window).
  analysis::ProtocolSpec protocol_spec() const override {
    return carrier_spec(name(), params_, plan_, worst_round_advance());
  }

 private:
  core::LineParams params_;
  core::SimLineCodec codec_;
  OwnershipPlan plan_;
  BlockCache block_cache_;
};

}  // namespace mpch::strategies
