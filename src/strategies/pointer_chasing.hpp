// pointer_chasing.hpp — the honest MPC strategy for Line^RO.
//
// One "carrier" machine holds the walk frontier (i, ℓ_i, r_i). Each round it
// advances along the chain for as long as the needed input block x_{ℓ} is in
// its local block set, then hands the frontier to an owner of the block it
// is missing. With storage fraction f = (blocks per machine)/v, the advance
// per round is geometric with mean 1/(1−f), so the expected round count is
// ≈ w·(1−f) — the curve experiment E1 traces against the paper's Ω̃(T)
// bound. This strategy is also the correctness reference: its output must
// equal the RAM evaluation of Line.
//
// All cross-round state is carried in messages (the model's discipline):
// every machine re-sends its block set to itself each round; the frontier
// travels to the next owner. The messages are block_store's tagged records.
//
// The carrier helpers below are shared: the walk loop with colluding and
// batch pointer-chasing, the end-of-round step and the envelope with
// pipelined SimLine and speculative, which keep pointer-chasing's shape.
#pragma once

#include <cstdint>
#include <string>

#include "analysis/protocol_spec.hpp"
#include "core/line.hpp"
#include "mpc/simulation.hpp"
#include "strategies/block_store.hpp"

namespace mpch::strategies {

/// Advance `f` along Line's chain while its next block is in `blocks` and
/// the round's query budget lasts. Returns the nodes advanced; when that is
/// nonzero, `last_answer` holds the last oracle answer.
std::uint64_t walk_owned(const core::LineCodec& codec, const BlockSet& blocks,
                         hash::CountingOracle& oracle, Frontier& f,
                         util::BitString& last_answer);

/// End a carrier's round: once `f` is past node w, the last answer is the
/// output; otherwise `f` goes to an owner of its next block ℓ.
void finish_or_hand_off(mpc::MachineIo& io, const core::LineParams& params,
                        const OwnershipPlan& plan, const Frontier& f, std::uint64_t advanced,
                        util::BitString last_answer);

/// Local memory (bits) a carrier machine needs under `plan`: its tagged block
/// set plus one tagged frontier.
std::uint64_t carrier_memory(const core::LineParams& params, const OwnershipPlan& plan);

/// Declared envelope of a single-carrier walk: one block set + one frontier
/// of memory, fan-in/out 2 (blocks-to-self + the single global frontier), up
/// to `oracle_queries` budget-clamped queries per round, and at most w rounds
/// (>= 1 advance per round once bootstrapped, since hand-offs go to the
/// block's owner).
analysis::ProtocolSpec carrier_spec(std::string protocol, const core::LineParams& params,
                                    const OwnershipPlan& plan, std::uint64_t oracle_queries);

class PointerChasingStrategy final : public mpc::MpcAlgorithm,
                                     public analysis::ProtocolSpecProvider {
 public:
  /// `plan` decides which machine owns which blocks (partitioned or
  /// replicated — replication models machines using their full s to store a
  /// larger fraction f of the input).
  PointerChasingStrategy(const core::LineParams& params, OwnershipPlan plan);

  void run_machine(mpc::MachineIo& io, hash::CountingOracle* oracle, const mpc::SharedTape& tape,
                   mpc::RoundTrace& trace) override;

  std::string name() const override { return "pointer-chasing"; }

  /// Build the round-0 input shares for `input` under the ownership plan.
  std::vector<util::BitString> make_initial_memory(const core::LineInput& input) const {
    return block_shares(params_, plan_, input);
  }

  /// Pass to MpcConfig::local_memory_bits.
  std::uint64_t required_local_memory() const { return carrier_memory(params_, plan_); }

  /// The carrier envelope with up to w queries per round (the whole
  /// remaining chain, if locally owned).
  analysis::ProtocolSpec protocol_spec() const override {
    return carrier_spec(name(), params_, plan_, params_.w);
  }

  const OwnershipPlan& plan() const { return plan_; }

 private:
  core::LineParams params_;
  core::LineCodec codec_;
  OwnershipPlan plan_;
  BlockCache block_cache_;
};

}  // namespace mpch::strategies
