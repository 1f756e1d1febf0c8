// checkpoint_lazy_bytes_test.cpp — the Checkpointer's lazily built wire
// bytes against an eager encode. The Checkpointer holds each save as a
// Checkpoint value and serialises it only when latest_encoded() is first
// read; these tests pin that the bytes it returns, and the byte costs it
// counts through encoded_bits, are exactly what serialize(capture(...))
// gives at that barrier, for every catalog strategy, plain and MAC-tagged,
// in a plain run and under the restart policy with crash, kill and
// tamper-ckpt plans.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fault/checkpoint.hpp"
#include "fault/fault_plan.hpp"
#include "fault/recovery.hpp"
#include "hash/random_oracle.hpp"
#include "mpc/simulation.hpp"
#include "serve/scenario.hpp"
#include "transport/transport.hpp"
#include "util/bitstring.hpp"

namespace mpch {
namespace {

using fault::Checkpoint;
using fault::CheckpointError;
using util::BitString;

/// Chained after a Checkpointer that saves at every barrier: checks the
/// Checkpointer's lazily encoded latest save against an eager encode of the
/// same barrier, and records each barrier's wire size in whole bytes.
class LazyBytesProbe : public mpc::RoundObserver {
 public:
  LazyBytesProbe(const fault::Checkpointer& ckpt, mpc::MpcConfig config,
                 const hash::LazyRandomOracle* oracle)
      : ckpt_(ckpt), config_(config), oracle_(oracle) {}

  void after_round(const mpc::RoundSnapshot& snapshot) override {
    SCOPED_TRACE("round " + std::to_string(snapshot.round));
    const Checkpoint cp = fault::capture(snapshot, config_, oracle_);
    const BitString wire = fault::serialize(cp);
    EXPECT_EQ(fault::encoded_bits(cp), wire.size());
    ASSERT_TRUE(ckpt_.latest_encoded().has_value());
    EXPECT_EQ(*ckpt_.latest_encoded(), wire);
    EXPECT_EQ(ckpt_.bytes_last(), (wire.size() + 7) / 8);
    bytes_.push_back((wire.size() + 7) / 8);
  }

  /// Wire bytes of the save at each barrier, indexed by round.
  const std::vector<std::uint64_t>& bytes() const { return bytes_; }

 private:
  const fault::Checkpointer& ckpt_;
  mpc::MpcConfig config_;
  const hash::LazyRandomOracle* oracle_;
  std::vector<std::uint64_t> bytes_;
};

serve::Scenario scenario(const std::string& strategy, bool authenticate) {
  serve::Scenario sc = serve::make_scenario(strategy, 1, 0);
  serve::apply_run_options(&sc, transport::TransportKind::kInProcess, 0, authenticate);
  return sc;
}

/// One strategy's fault-free run with a save and a probe at every barrier.
struct CleanRun {
  mpc::MpcRunResult run;
  std::shared_ptr<hash::LazyRandomOracle> oracle;
  std::vector<std::uint64_t> bytes;  ///< save size at each barrier
};

CleanRun run_probed(const std::string& strategy, bool authenticate) {
  serve::Scenario sc = scenario(strategy, authenticate);
  CleanRun clean;
  clean.oracle = sc.make_oracle();
  fault::Checkpointer ckpt(sc.config, clean.oracle.get(), /*every=*/1, "",
                           /*capture_final=*/true);
  LazyBytesProbe probe(ckpt, sc.config, clean.oracle.get());
  fault::ObserverChain chain({&ckpt, &probe});
  mpc::MpcSimulation sim(sc.config, clean.oracle);
  clean.run = sim.run(*sc.algo, sc.initial, &chain);
  clean.bytes = probe.bytes();
  EXPECT_TRUE(clean.run.completed);
  EXPECT_EQ(clean.bytes.size(), clean.run.rounds_used);
  EXPECT_EQ(ckpt.checkpoints_taken(), clean.bytes.size());
  std::uint64_t total = 0;
  for (std::uint64_t b : clean.bytes) total += b;
  EXPECT_EQ(ckpt.bytes_total(), total);
  return clean;
}

TEST(LazyCheckpointBytes, EveryBarrierAndEveryRestoreMatchAnEagerEncode) {
  // run_probed checks every barrier of a fault-free run. Under restart,
  // cadence 1 saves each barrier before the run's last exactly
  // once, however often it rolls back: a crash poisons its round before
  // that round's save and a kill fires before its round runs, so every
  // restore resumes at the barrier the fault interrupted. Two faults put
  // saves between two reads, so a cached encoding that a save did not
  // replace would restore the first fault's boundary again and save the
  // re-executed rounds twice.
  for (const std::string& strategy : serve::strategy_names()) {
    for (bool authenticate : {false, true}) {
      SCOPED_TRACE(strategy + (authenticate ? " (MAC-tagged)" : " (plain)"));
      const CleanRun clean = run_probed(strategy, authenticate);
      const std::uint64_t rounds = clean.run.rounds_used;
      ASSERT_GE(rounds, 2u);
      const std::uint64_t a = std::max<std::uint64_t>(1, rounds / 3);
      const std::uint64_t b = 2 * rounds / 3;
      const bool second = b > a;
      const std::string ra = std::to_string(a);
      const std::string rb = std::to_string(b);

      std::uint64_t expected_total = 0;
      for (std::uint64_t r = 0; r + 1 < rounds; ++r) expected_total += clean.bytes[r];

      for (const std::string& plan :
           {"crash:machine=0,round=" + ra + (second ? ";crash:machine=0,round=" + rb : ""),
            "kill:round=" + ra + (second ? ";kill:round=" + rb : "")}) {
        SCOPED_TRACE(plan);
        serve::Scenario sc = scenario(strategy, authenticate);
        fault::ChaosHarness harness(sc.config, [&sc] { return sc.make_oracle(); });
        const fault::ChaosResult out =
            harness.run("restart", *sc.algo, sc.initial, fault::FaultPlan::parse(plan), 1);
        EXPECT_TRUE(out.run.completed);
        EXPECT_EQ(out.cost.recoveries, second ? 2u : 1u);
        EXPECT_EQ(out.cost.rounds_reexecuted, plan[0] == 'c' ? out.cost.recoveries : 0u);
        EXPECT_TRUE(serve::artifact_mismatches(clean.run, clean.oracle.get(), out.run,
                                               out.oracle.get())
                        .empty());
        EXPECT_EQ(out.cost.checkpoints_taken, rounds - 1);
        EXPECT_EQ(out.cost.checkpoint_bytes_total, expected_total);
        EXPECT_EQ(out.cost.checkpoint_bytes_last, clean.bytes[rounds - 2]);
      }

      // tamper-ckpt flips the encoded save the crash then restores from.
      const std::string tampered = "tamper-ckpt:round=" + std::to_string(a - 1) +
                                   ",bit=100;crash:machine=0,round=" + ra;
      SCOPED_TRACE(tampered);
      serve::Scenario sc = scenario(strategy, authenticate);
      fault::ChaosHarness harness(sc.config, [&sc] { return sc.make_oracle(); });
      EXPECT_THROW(
          harness.run("restart", *sc.algo, sc.initial, fault::FaultPlan::parse(tampered), 1),
          CheckpointError);
    }
  }
}

TEST(LazyCheckpointBytes, EncodedBitsCountsTheCorpusCheckpoints) {
  // Every checkpoint-corpus seed that parses: raw, cut to the payload length
  // its header declares (a seed file pads the wire to whole bytes), or
  // behind a valid header.
  std::size_t parsed = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::path(MPCH_FUZZ_CORPUS_DIR) / "checkpoint")) {
    SCOPED_TRACE(entry.path().string());
    std::ifstream in(entry.path(), std::ios::binary);
    const std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                          std::istreambuf_iterator<char>());
    const BitString bits = BitString::from_bytes(bytes);
    std::vector<BitString> wires{bits, fault::frame_checkpoint_payload(bits)};
    if (bits.size() >= 256 && bits.get_uint(128, 64) <= bits.size() - 256) {
      wires.push_back(bits.slice(0, 256 + bits.get_uint(128, 64)));
    }
    for (const BitString& wire : wires) {
      std::optional<Checkpoint> cp;
      try {
        cp = fault::deserialize(wire);
      } catch (const CheckpointError&) {
        continue;
      }
      EXPECT_EQ(fault::encoded_bits(*cp), fault::serialize(*cp).size());
      ++parsed;
    }
  }
  EXPECT_GE(parsed, 1u) << "no checkpoint-corpus seed parsed — check fuzz/corpus/checkpoint";
}

}  // namespace
}  // namespace mpch
