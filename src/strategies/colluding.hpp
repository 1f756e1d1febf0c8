// colluding.hpp — the communication-pattern ablation for Line^RO.
//
// The lower bound holds for machines that "collaborate in an arbitrary
// way"; the honest pointer-chaser uses the stingiest pattern (unicast
// hand-off). This strategy uses the most generous one: the carrier
// broadcasts the frontier to *every* machine each round, and every machine
// owning the needed block advances in parallel (duplicating the oracle
// work). Round counts are provably identical — the frontier still advances
// by one geometric run per round — while communication inflates by a factor
// m. Experiment E17 measures both, demonstrating that the bound is about
// local memory, not about who talks to whom.
#pragma once

#include <cstdint>

#include "analysis/protocol_spec.hpp"
#include "core/line.hpp"
#include "mpc/simulation.hpp"
#include "strategies/block_store.hpp"
#include "strategies/pointer_chasing.hpp"  // walk_owned

namespace mpch::strategies {

class ColludingStrategy final : public mpc::MpcAlgorithm,
                                public analysis::ProtocolSpecProvider {
 public:
  ColludingStrategy(const core::LineParams& params, OwnershipPlan plan);

  void run_machine(mpc::MachineIo& io, hash::CountingOracle* oracle, const mpc::SharedTape& tape,
                   mpc::RoundTrace& trace) override;

  std::string name() const override { return "colluding-broadcast"; }

  std::vector<util::BitString> make_initial_memory(const core::LineInput& input) const {
    return block_shares(params_, plan_, input);
  }

  /// Inbox worst case: own blocks + one frontier from every machine.
  std::uint64_t required_local_memory() const;

  /// Declared envelope: the broadcast pattern inflates fan-in/out to m+1
  /// (blocks-to-self + one frontier copy per machine) while the round count
  /// stays at w — the communication-vs-rounds contrast in spec form.
  analysis::ProtocolSpec protocol_spec() const override;

 private:
  core::LineParams params_;
  core::LineCodec codec_;
  OwnershipPlan plan_;
  std::uint64_t machines_;
  BlockCache block_cache_;
};

}  // namespace mpch::strategies
