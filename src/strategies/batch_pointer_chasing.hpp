// batch_pointer_chasing.hpp — what parallelism IS still good for.
//
// Theorem 3.1 is a *latency* bound: one Line chain cannot be finished in
// fewer than Ω̃(T) rounds. It says nothing about *throughput*: k independent
// chains (k inputs to the same f^RO) can be walked concurrently by the same
// cluster, their frontiers interleaving across machines, so the total round
// count stays ≈ one chain's count instead of k times it. This strategy
// batches k instances of pointer-chasing; experiment E17 measures the
// near-flat rounds-vs-k curve against the k·w(1−f) sequential baseline.
//
// Wire formats extend the single-instance ones with an instance id:
//   blocks:   [tag:2][inst:16][BlockSet]      (one per instance per machine)
//   frontier: [tag:2][inst:16][Frontier]
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/protocol_spec.hpp"
#include "core/line.hpp"
#include "mpc/simulation.hpp"
#include "strategies/block_store.hpp"
#include "strategies/pointer_chasing.hpp"

namespace mpch::strategies {

class BatchPointerChasingStrategy final : public mpc::MpcAlgorithm,
                                          public analysis::ProtocolSpecProvider {
 public:
  /// One ownership plan shared by all instances (round-robin).
  BatchPointerChasingStrategy(const core::LineParams& params, OwnershipPlan plan,
                              std::uint64_t instances);

  void run_machine(mpc::MachineIo& io, hash::CountingOracle* oracle, const mpc::SharedTape& tape,
                   mpc::RoundTrace& trace) override;

  std::string name() const override { return "batch-pointer-chasing"; }

  /// Round-0 shares covering all instances' blocks.
  std::vector<util::BitString> make_initial_memory(
      const std::vector<core::LineInput>& inputs) const;

  /// s needed: per-instance block shares plus up to `instances` frontiers.
  std::uint64_t required_local_memory() const;

  /// Declared envelope: all k frontiers may pile onto one machine, so the
  /// per-round worst case is k of everything (queries k·w, budget-clamped)
  /// plus the collector's running answer set on machine 0; the declared
  /// round bound k·w + 2 covers fully serialized instances plus the final
  /// done → collect → output hand-off.
  analysis::ProtocolSpec protocol_spec() const override;

  /// Outputs are emitted per instance as [inst:16][answer:n], concatenated
  /// in completion order; parse into per-instance answers.
  static std::vector<util::BitString> parse_outputs(const core::LineParams& params,
                                                    const util::BitString& output,
                                                    std::uint64_t instances);

 private:
  /// What machine j holds of one instance in the current round. Only
  /// machine j's run_machine touches row j of `scratch_` (as with its
  /// `block_cache_` slots); it clears the row's flags first, and the row
  /// keeps its storage across rounds.
  struct InstanceView {
    const BlockSet* blocks = nullptr;  ///< its block record arrived this round
    bool has_frontier = false;
    Frontier frontier;
    bool has_answer = false;  ///< a done or collected record named it
    util::BitString answer;
  };

  core::LineParams params_;
  core::LineCodec codec_;
  OwnershipPlan plan_;
  std::uint64_t instances_;
  BlockCache block_cache_;             ///< one record per instance id
  std::vector<InstanceView> scratch_;  ///< machines × instances, row-major
};

}  // namespace mpch::strategies
