#include "mpc/simulation.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "hash/random_oracle.hpp"
#include "hash_reference.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace mpch::mpc {
namespace {

using util::BitString;

/// Plain-model test algorithm: pass a token around the ring once, then the
/// origin outputs the hop count.
class RingAlgorithm final : public MpcAlgorithm {
 public:
  explicit RingAlgorithm(std::uint64_t machines) : machines_(machines) {}

  void run_machine(MachineIo& io, hash::CountingOracle*, const SharedTape&,
                   RoundTrace&) override {
    for (const auto& msg : *io.inbox) {
      util::BitReader r(msg.payload);
      std::uint64_t hops = r.read_uint(16);
      if (hops >= machines_) {
        io.output = BitString::from_uint(hops, 16);
        return;
      }
      util::BitWriter w;
      w.write_uint(hops + 1, 16);
      io.send((io.machine + 1) % machines_, w.take());
    }
  }

  std::string name() const override { return "ring"; }

 private:
  std::uint64_t machines_;
};

/// Algorithm that tries to flood one machine past its memory cap.
class FloodAlgorithm final : public MpcAlgorithm {
 public:
  explicit FloodAlgorithm(std::uint64_t bits) : bits_(bits) {}
  void run_machine(MachineIo& io, hash::CountingOracle*, const SharedTape&,
                   RoundTrace&) override {
    if (io.round == 0 && io.machine == 0) io.send(0, BitString(bits_));
  }
  std::string name() const override { return "flood"; }

 private:
  std::uint64_t bits_;
};

/// Algorithm that queries the oracle more than q times in a round.
class GreedyQueryAlgorithm final : public MpcAlgorithm {
 public:
  void run_machine(MachineIo& io, hash::CountingOracle* oracle, const SharedTape&,
                   RoundTrace&) override {
    if (io.machine != 0 || io.round != 0) return;
    for (int i = 0; i < 100; ++i) oracle->query(BitString::from_uint(i, 16));
    io.output = BitString(1);
  }
  std::string name() const override { return "greedy"; }
};

MpcConfig config(std::uint64_t m, std::uint64_t s, std::uint64_t q) {
  MpcConfig c;
  c.machines = m;
  c.local_memory_bits = s;
  c.query_budget = q;
  c.max_rounds = 100;
  c.tape_seed = 1;
  return c;
}

TEST(MpcSimulation, RingCompletesInMRounds) {
  const std::uint64_t m = 5;
  MpcSimulation sim(config(m, 1024, 1), nullptr);
  RingAlgorithm algo(m);
  util::BitWriter w;
  w.write_uint(0, 16);
  MpcRunResult result = sim.run(algo, {w.take()});
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.rounds_used, m + 1);  // m hops + the output round
  EXPECT_EQ(result.output.get_uint(0, 16), m);
}

TEST(MpcSimulation, TraceCountsMessagesAndBits) {
  const std::uint64_t m = 3;
  MpcSimulation sim(config(m, 1024, 1), nullptr);
  RingAlgorithm algo(m);
  util::BitWriter w;
  w.write_uint(0, 16);
  MpcRunResult result = sim.run(algo, {w.take()});
  // Rounds 0..m-1 each carry one 16-bit message; the final round none.
  std::uint64_t total_msgs = 0;
  for (const auto& r : result.trace.rounds()) total_msgs += r.messages;
  EXPECT_EQ(total_msgs, m);
  EXPECT_EQ(result.trace.total_communicated_bits(), m * 16);
}

TEST(MpcSimulation, EnforcesInboxCapacity) {
  MpcSimulation sim(config(4, 64, 1), nullptr);
  FloodAlgorithm algo(65);  // one bit over the cap
  EXPECT_THROW(sim.run(algo, {BitString(1)}), MemoryViolation);
}

TEST(MpcSimulation, ExactCapacityAllowed) {
  MpcSimulation sim(config(4, 64, 1), nullptr);
  FloodAlgorithm algo(64);
  EXPECT_NO_THROW(sim.run(algo, {BitString(1)}));
}

TEST(MpcSimulation, RejectsOversizedInputShare) {
  MpcSimulation sim(config(2, 32, 1), nullptr);
  RingAlgorithm algo(2);
  EXPECT_THROW(sim.run(algo, {BitString(33)}), MemoryViolation);
}

TEST(MpcSimulation, RejectsTooManyShares) {
  MpcSimulation sim(config(2, 32, 1), nullptr);
  RingAlgorithm algo(2);
  std::vector<BitString> shares(3, BitString(1));
  EXPECT_THROW(sim.run(algo, shares), std::invalid_argument);
}

TEST(MpcSimulation, EnforcesQueryBudget) {
  auto oracle = std::make_shared<hash::LazyRandomOracle>(16, 16, 5);
  MpcSimulation sim(config(2, 128, 10), oracle);
  GreedyQueryAlgorithm algo;
  EXPECT_THROW(sim.run(algo, {BitString(1)}), hash::QueryBudgetExceeded);
}

TEST(MpcSimulation, QueryBudgetSufficientSucceeds) {
  auto oracle = std::make_shared<hash::LazyRandomOracle>(16, 16, 5);
  MpcSimulation sim(config(2, 128, 100), oracle);
  GreedyQueryAlgorithm algo;
  MpcRunResult result = sim.run(algo, {BitString(1)});
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.transcript->size(), 100u);
  EXPECT_EQ(result.trace.rounds()[0].oracle_queries, 100u);
}

TEST(MpcSimulation, StopsAtMaxRoundsWithoutOutput) {
  MpcConfig c = config(2, 64, 1);
  c.max_rounds = 7;
  MpcSimulation sim(c, nullptr);

  class ForeverAlgorithm final : public MpcAlgorithm {
   public:
    void run_machine(MachineIo& io, hash::CountingOracle*, const SharedTape&,
                     RoundTrace&) override {
      io.send(io.machine, BitString(8));
    }
    std::string name() const override { return "forever"; }
  } algo;

  MpcRunResult result = sim.run(algo, {BitString(1)});
  EXPECT_FALSE(result.completed);
  EXPECT_EQ(result.rounds_used, 7u);
}

TEST(MpcSimulation, RejectsMessageToNonexistentMachine) {
  MpcSimulation sim(config(2, 64, 1), nullptr);
  class BadTarget final : public MpcAlgorithm {
   public:
    void run_machine(MachineIo& io, hash::CountingOracle*, const SharedTape&,
                     RoundTrace&) override {
      if (io.round == 1 && io.machine == 1) io.send(5, BitString(1));
      io.send(io.machine, BitString(1));
    }
    std::string name() const override { return "bad-target"; }
  } algo;
  try {
    sim.run(algo, {BitString(1), BitString(1)});
    FAIL() << "expected RoutingViolation";
  } catch (const RoutingViolation& e) {
    // Provenance: the diagnostic names the sender, the destination, and the
    // round in which the bad send happened.
    std::string what = e.what();
    EXPECT_NE(what.find("machine 1"), std::string::npos) << what;
    EXPECT_NE(what.find("machine 5"), std::string::npos) << what;
    EXPECT_NE(what.find("round 1"), std::string::npos) << what;
  }
}

TEST(MpcSimulation, RoutingViolationRaisedEvenForDirectOutboxWrites) {
  // Outbox entries pushed without going through send() are caught by the
  // merge-time backstop with the same exception type.
  MpcSimulation sim(config(2, 64, 1), nullptr);
  class RawOutbox final : public MpcAlgorithm {
   public:
    void run_machine(MachineIo& io, hash::CountingOracle*, const SharedTape&,
                     RoundTrace&) override {
      if (io.round == 0 && io.machine == 0) io.outbox.push_back({0, 9, BitString(1)});
    }
    std::string name() const override { return "raw-outbox"; }
  } algo;
  EXPECT_THROW(sim.run(algo, {BitString(1)}), RoutingViolation);
}

TEST(MpcSimulation, SharedTapeIsCommonAndDeterministic) {
  SharedTape t1(99), t2(99), t3(100);
  EXPECT_EQ(t1.word(0), t2.word(0));
  EXPECT_EQ(t1.word(12345), t2.word(12345));
  EXPECT_NE(t1.word(0), t3.word(0));
  // Golden values, recorded before word() hashed in place.
  EXPECT_EQ(t1.word(0), 0x3ba622dbd8455778ULL);
  EXPECT_EQ(t1.word(12345), 0x164dfab488f9143cULL);
}

TEST(MpcSimulation, SharedTapeWordMatchesPrefixBuildingReference) {
  util::SplitMix64 rng(77);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t seed = rng.next();
    const std::uint64_t index = i < 100 ? static_cast<std::uint64_t>(i) : rng.next();
    const std::uint64_t word = SharedTape(seed).word(index);
    for (const auto& path : hash::reference::compress_paths()) {
      ASSERT_EQ(word, hash::reference::reference_tape_word(seed, index, path.fn))
          << path.name << ", seed " << seed << ", word " << index;
    }
  }
}

TEST(MpcSimulation, ConfigValidation) {
  EXPECT_THROW(MpcSimulation(config(0, 64, 1), nullptr), std::invalid_argument);
  EXPECT_THROW(MpcSimulation(config(2, 0, 1), nullptr), std::invalid_argument);
}

TEST(PartitionBlocksRoundRobin, SpreadsBlocks) {
  std::vector<BitString> blocks = {BitString(8), BitString(8), BitString(8), BitString(8),
                                   BitString(8)};
  auto shares = partition_blocks_round_robin(blocks, 2);
  ASSERT_EQ(shares.size(), 2u);
  EXPECT_EQ(shares[0].size(), 24u);  // 3 blocks
  EXPECT_EQ(shares[1].size(), 16u);  // 2 blocks
}

TEST(PartitionBlocksRoundRobin, ZeroMachinesThrows) {
  std::vector<BitString> blocks = {BitString(8)};
  EXPECT_THROW(partition_blocks_round_robin(blocks, 0), std::invalid_argument);
  // Zero machines is rejected even with nothing to distribute.
  EXPECT_THROW(partition_blocks_round_robin({}, 0), std::invalid_argument);
}

TEST(PartitionBlocksRoundRobin, MoreMachinesThanBlocks) {
  std::vector<BitString> blocks = {BitString(8), BitString(8)};
  auto shares = partition_blocks_round_robin(blocks, 5);
  ASSERT_EQ(shares.size(), 5u);
  EXPECT_EQ(shares[0].size(), 8u);
  EXPECT_EQ(shares[1].size(), 8u);
  for (std::size_t j = 2; j < 5; ++j) EXPECT_EQ(shares[j].size(), 0u);
}

TEST(PartitionBlocksRoundRobin, NoBlocksYieldsEmptyShares) {
  auto shares = partition_blocks_round_robin({}, 3);
  ASSERT_EQ(shares.size(), 3u);
  for (const auto& s : shares) EXPECT_EQ(s.size(), 0u);
}

TEST(PartitionBlocksRoundRobin, ShareExceedingSIsRejectedAtRunTime) {
  // The partition itself is size-agnostic; the simulation's input check is
  // what rejects a share that outgrows s. 3 blocks of 16 bits on 1 machine
  // = 48 bits > s = 32.
  std::vector<BitString> blocks = {BitString(16), BitString(16), BitString(16)};
  auto shares = partition_blocks_round_robin(blocks, 1);
  ASSERT_EQ(shares.size(), 1u);
  EXPECT_EQ(shares[0].size(), 48u);
  MpcSimulation sim(config(1, 32, 1), nullptr);
  RingAlgorithm algo(1);
  EXPECT_THROW(sim.run(algo, shares), MemoryViolation);
}

TEST(Peak, TieGoesToTheLowestMachineIndex) {
  Peak p;
  p.observe(5, 3);
  EXPECT_EQ(p.machine, 3u);
  p.observe(5, 1);  // equal value, lower index: the witness moves
  EXPECT_EQ(p.value, 5u);
  EXPECT_EQ(p.machine, 1u);
  p.observe(5, 2);  // equal value, higher index: the witness stays
  EXPECT_EQ(p.machine, 1u);
  p.observe(4, 0);  // smaller value never wins
  EXPECT_EQ(p.value, 5u);
  EXPECT_EQ(p.machine, 1u);
  p.observe(6, 2);
  EXPECT_EQ(p.value, 6u);
  EXPECT_EQ(p.machine, 2u);
}

TEST(Peak, WitnessIsObservationOrderIndependent) {
  // The same multiset of (value, machine) observations must name the same
  // witness in any order — serial sweeps, parallel merges, and resumed
  // replays all agree.
  const std::pair<std::uint64_t, std::uint64_t> obs[] = {{7, 2}, {7, 0}, {3, 1}, {7, 3}};
  Peak forward;
  for (const auto& [v, m] : obs) forward.observe(v, m);
  Peak backward;
  for (auto it = std::rbegin(obs); it != std::rend(obs); ++it) {
    backward.observe(it->first, it->second);
  }
  EXPECT_EQ(forward, backward);
  EXPECT_EQ(forward.value, 7u);
  EXPECT_EQ(forward.machine, 0u);

  // merge() follows the same rule: merging per-machine peaks in any grouping
  // names the lowest-index machine among the maxima.
  Peak left, right;
  left.observe(7, 2);
  right.observe(7, 0);
  Peak merged_lr = left;
  merged_lr.merge(right);
  Peak merged_rl = right;
  merged_rl.merge(left);
  EXPECT_EQ(merged_lr, merged_rl);
  EXPECT_EQ(merged_lr.machine, 0u);
}

TEST(MpcSimulation, MemoryViolationProvenanceTextIsStable) {
  // Recovery tooling and CI greps key off these diagnostics; pin the exact
  // wording of both MemoryViolation sites.
  MpcSimulation sim(config(2, 64, 1), nullptr);
  FloodAlgorithm algo(100);  // machine 0 sends itself 100 bits > s=64
  try {
    sim.run(algo, {BitString(1), BitString(1)});
    FAIL() << "expected MemoryViolation";
  } catch (const MemoryViolation& e) {
    EXPECT_STREQ(e.what(), "machine 0 would receive 100 bits > s=64 after round 0");
  }

  MpcSimulation sim2(config(2, 64, 1), nullptr);
  RingAlgorithm ring(2);
  try {
    sim2.run(ring, {BitString(80)});
    FAIL() << "expected MemoryViolation";
  } catch (const MemoryViolation& e) {
    EXPECT_STREQ(e.what(), "input share for machine 0 has 80 bits > s=64");
  }
}

TEST(MpcSimulation, RoutingViolationProvenanceTextIsStable) {
  // Both detection sites — send()'s eager check and the merge-time backstop
  // for direct outbox writes — must produce the identical diagnostic.
  class BadSend final : public MpcAlgorithm {
   public:
    explicit BadSend(bool direct) : direct_(direct) {}
    void run_machine(MachineIo& io, hash::CountingOracle*, const SharedTape&,
                     RoundTrace&) override {
      if (io.machine != 1 || io.round != 0) return;
      if (direct_) {
        io.outbox.push_back({1, 7, BitString(1)});
      } else {
        io.send(7, BitString(1));
      }
    }
    std::string name() const override { return "bad-send"; }

   private:
    bool direct_;
  };
  for (bool direct : {false, true}) {
    MpcSimulation sim(config(2, 64, 1), nullptr);
    BadSend algo(direct);
    try {
      sim.run(algo, {BitString(1), BitString(1)});
      FAIL() << "expected RoutingViolation (direct=" << direct << ")";
    } catch (const RoutingViolation& e) {
      EXPECT_STREQ(e.what(), "machine 1 sent a message to machine 7 >= m=2 in round 0") << direct;
    }
  }
}

/// Annotates key "a" only in even rounds and key "b" only on machine 1 in
/// round 2, so each machine's reused scratch trace holds keys that got no
/// value this round. Machine 0 outputs in round 4.
class SparseAnnotations final : public MpcAlgorithm {
 public:
  void run_machine(MachineIo& io, hash::CountingOracle*, const SharedTape&,
                   RoundTrace& trace) override {
    if (io.round % 2 == 0) trace.annotate("a", 10 * io.round + io.machine);
    if (io.round == 2 && io.machine == 1) trace.annotate("b", 7);
    if (io.round == 4 && io.machine == 0) io.output = BitString(1);
  }
  std::string name() const override { return "sparse-annotations"; }
};

TEST(MpcSimulation, SparseAnnotationsMergeToExactlyTheAnnotatedKeys) {
  // parallel_simulation_test runs the same strategy at threads {2, 8}.
  const std::map<std::string, std::vector<std::uint64_t>> expected = {
      {"a", {0, 1, 2, 20, 21, 22, 40, 41, 42}}, {"b", {7}}};
  MpcSimulation sim(config(3, 64, 1), nullptr);
  SparseAnnotations algo;
  MpcRunResult result = sim.run(algo, {});
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.trace.annotations(), expected);
}

TEST(RoundTrace, ResetScratchKeepsKeysButMergesNoEmptyOnes) {
  RoundTrace scratch;
  scratch.reset_scratch(0);
  scratch.annotate("x", 1);
  scratch.current().messages = 5;
  RoundTrace first;
  first.begin_round(0);
  first.merge_round_from(scratch);
  EXPECT_EQ(first.annotation("x"), std::vector<std::uint64_t>{1});
  EXPECT_EQ(first.current().messages, 5u);

  // After a reset the scratch holds one fresh RoundStats and an empty "x".
  scratch.reset_scratch(1);
  ASSERT_EQ(scratch.rounds().size(), 1u);
  RoundStats fresh;
  fresh.round = 1;
  EXPECT_EQ(scratch.rounds()[0], fresh);
  ASSERT_EQ(scratch.annotations().count("x"), 1u);
  EXPECT_TRUE(scratch.annotation("x").empty());
  RoundTrace second;
  second.begin_round(1);
  second.merge_round_from(scratch);
  EXPECT_TRUE(second.annotations().empty());
  EXPECT_EQ(second.current().messages, 0u);
}

TEST(MpcSimulation, ParallelRingMatchesSerial) {
  const std::uint64_t m = 5;
  MpcConfig c = config(m, 1024, 1);
  c.threads = 4;
  MpcSimulation sim(c, nullptr);
  RingAlgorithm algo(m);
  util::BitWriter w;
  w.write_uint(0, 16);
  MpcRunResult result = sim.run(algo, {w.take()});
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.rounds_used, m + 1);
  EXPECT_EQ(result.output.get_uint(0, 16), m);
}

}  // namespace
}  // namespace mpch::mpc
