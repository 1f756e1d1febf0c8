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
// travels to the next owner. Message payloads are tagged:
//   [tag:2] 0 = block set, 1 = frontier.
#pragma once

#include <cstdint>

#include "analysis/protocol_spec.hpp"
#include "core/line.hpp"
#include "mpc/simulation.hpp"
#include "strategies/block_store.hpp"

namespace mpch::strategies {

/// Payload tags shared by the Line/SimLine strategies.
enum class PayloadTag : std::uint64_t { kBlocks = 0, kFrontier = 1 };
constexpr std::uint64_t kTagBits = 2;

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
  std::vector<util::BitString> make_initial_memory(const core::LineInput& input) const;

  /// Local memory (bits) a machine needs under this plan: its block set plus
  /// one frontier plus tags. Pass to MpcConfig::local_memory_bits.
  std::uint64_t required_local_memory() const;

  /// Declared worst-case envelope: one block set + one frontier of memory,
  /// fan-in/out 2 (blocks-to-self + the single global frontier), up to w
  /// budget-clamped queries per round, and at most w rounds (>= 1 advance
  /// per round once bootstrapped, since hand-offs go to the block's owner).
  analysis::ProtocolSpec protocol_spec() const override;

  const OwnershipPlan& plan() const { return plan_; }

 private:
  struct ParsedInbox {
    std::shared_ptr<const BlockSet> blocks;
    util::BitString blocks_payload;  // re-sent verbatim to self
    bool has_frontier = false;
    Frontier frontier;
  };

  ParsedInbox parse_inbox(const std::vector<mpc::Message>& inbox);

  core::LineParams params_;
  core::LineCodec codec_;
  OwnershipPlan plan_;
  BlockSetCache block_cache_;
};

}  // namespace mpch::strategies
