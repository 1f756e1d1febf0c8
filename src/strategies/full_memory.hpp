// full_memory.hpp — the s ≥ S strategy: gather everything, solve locally.
//
// The introduction's framing: "if each machine has local memory size S, then
// trivially the function can be computed in one round [after gathering]".
// This strategy is the other side of the threshold experiment E10: round 0
// ships every block to machine 0; round 1 machine 0 evaluates the entire
// chain locally (w adaptive queries — free within a round) and outputs.
// It only runs when s admits the whole input; the simulator's inbox-capacity
// check rejects it otherwise, which is itself a tested behaviour.
#pragma once

#include <cstdint>

#include "analysis/protocol_spec.hpp"
#include "core/line.hpp"
#include "mpc/simulation.hpp"
#include "strategies/block_store.hpp"

namespace mpch::strategies {

class FullMemoryStrategy final : public mpc::MpcAlgorithm,
                                 public analysis::ProtocolSpecProvider {
 public:
  FullMemoryStrategy(const core::LineParams& params, OwnershipPlan plan);

  void run_machine(mpc::MachineIo& io, hash::CountingOracle* oracle, const mpc::SharedTape& tape,
                   mpc::RoundTrace& trace) override;

  std::string name() const override { return "full-memory"; }

  std::vector<util::BitString> make_initial_memory(const core::LineInput& input) const {
    return block_shares(params_, plan_, input);
  }

  /// Memory the gather target needs: all v blocks plus tags.
  std::uint64_t required_local_memory() const;

  /// Declared envelope: a two-round prologue (scatter to machine 0, then a
  /// local walk of all w nodes). Queries are NOT budget-clamped — the walk
  /// unconditionally spends w, so q < w is a static violation.
  analysis::ProtocolSpec protocol_spec() const override;

 private:
  core::LineParams params_;
  core::LineCodec codec_;
  OwnershipPlan plan_;
};

}  // namespace mpch::strategies
