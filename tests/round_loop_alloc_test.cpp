// round_loop_alloc_test.cpp — the steady-state round loop allocates nothing
// of its own.
//
// Definition 2.1 rebuilds every machine's memory from its inbox each round,
// so the simulator pays its per-machine-round overhead m times a round. This
// executable replaces the global operator new with a counting one and runs a
// ring whose algorithm allocates nothing itself (48-bit payloads stay inside
// BitString's inline buffer, tagged or not). Between two round boundaries
// 1,000 rounds apart, the loop may allocate only for the amortised growth of
// the merged trace: its RoundStats vector and its one annotation vector,
// a few reallocations each. The oracle leg swaps the annotation for two
// oracle queries per machine-round (one repeated input, one fresh), so the
// amortised growth is the RoundStats vector, the transcript, and the
// memo's entry vector and index; a query itself allocates nothing. The
// threaded leg runs the plain ring on a 4-thread pool under the same bound.
// The batch leg runs a real strategy, the catalog's batch pointer-chasing,
// whose only per-round allocation is its collector's one long message.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "hash/random_oracle.hpp"
#include "mpc/simulation.hpp"
#include "serve/scenario.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t /*size*/) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t /*size*/) noexcept { std::free(p); }

namespace mpch::mpc {
namespace {

using util::BitString;

constexpr std::uint64_t kMachines = 4;
constexpr std::uint64_t kRounds = 2000;
constexpr std::size_t kPayloadBits = 48;
constexpr std::uint64_t kFirstProbe = 100;
constexpr std::uint64_t kSecondProbe = 1100;
constexpr std::uint64_t kAllowedAllocations = 16;

constexpr std::size_t kOracleBits = 64;

/// Every machine holds one counter and passes it, incremented, to the next
/// machine each round; machine 0 outputs its counter in the last round.
/// Without an oracle each machine annotates its hop count; with one it
/// instead queries its own fixed input (a memo hit after round 0) and then
/// an input no machine has asked before (a miss).
class TokenRing final : public MpcAlgorithm {
 public:
  void run_machine(MachineIo& io, hash::CountingOracle* oracle, const SharedTape&,
                   RoundTrace& trace) override {
    if (oracle == nullptr) {
      trace.annotate("hops", io.inbox->size());
    } else {
      oracle->query(BitString::from_uint(io.machine, kOracleBits));
      oracle->query(BitString::from_uint(kMachines * (io.round + 1) + io.machine, kOracleBits));
    }
    for (const auto& msg : *io.inbox) {
      const std::uint64_t counter = msg.payload.get_uint(0, kPayloadBits);
      if (io.round + 1 == kRounds && io.machine == 0) {
        io.output = msg.payload;
        return;
      }
      io.send((io.machine + 1) % kMachines, BitString::from_uint(counter + 1, kPayloadBits));
    }
  }

  std::string name() const override { return "token-ring"; }
};

/// Reads the allocation counter at two round boundaries.
class AllocationProbe final : public RoundObserver {
 public:
  AllocationProbe(std::uint64_t first_round = kFirstProbe,
                  std::uint64_t second_round = kSecondProbe)
      : first_round_(first_round), second_round_(second_round) {}

  void before_round(std::uint64_t round) override {
    if (round == first_round_) first_ = g_allocations.load(std::memory_order_relaxed);
    if (round == second_round_) second_ = g_allocations.load(std::memory_order_relaxed);
  }

  std::uint64_t steady_allocations() const { return second_ - first_; }

 private:
  std::uint64_t first_round_;
  std::uint64_t second_round_;
  std::uint64_t first_ = 0;
  std::uint64_t second_ = 0;
};

void expect_steady_rounds_allocate_nothing(bool authenticate, bool with_oracle,
                                           std::uint64_t threads = 1) {
  MpcConfig c;
  c.machines = kMachines;
  c.threads = threads;
  c.local_memory_bits = 256;
  c.max_rounds = kRounds;
  c.tape_seed = 1;
  c.query_budget = 2;
  c.authenticate_messages = authenticate;
  auto oracle =
      with_oracle ? std::make_shared<hash::LazyRandomOracle>(kOracleBits, kOracleBits, 7) : nullptr;
  MpcSimulation sim(c, oracle);
  TokenRing algo;
  AllocationProbe probe;
  const std::vector<BitString> input(kMachines, BitString::from_uint(0, kPayloadBits));
  const MpcRunResult result = sim.run(algo, input, &probe);

  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.rounds_used, kRounds);
  EXPECT_EQ(result.output, BitString::from_uint(kRounds - 1, kPayloadBits));
  if (with_oracle) {
    EXPECT_EQ(result.transcript->size(), 2 * kMachines * kRounds);
    EXPECT_EQ(oracle->touched_entries(), kMachines * (kRounds + 1));
  } else {
    EXPECT_EQ(result.trace.annotation("hops").size(), kMachines * kRounds);
  }
  EXPECT_LE(probe.steady_allocations(), kAllowedAllocations)
      << "heap allocations in rounds [" << kFirstProbe << ", " << kSecondProbe << ")";
  ::testing::Test::RecordProperty("steady_allocations",
                                  std::to_string(probe.steady_allocations()));
}

TEST(RoundLoopAllocations, SerialPlainRingAllocatesOnlyForTraceGrowth) {
  expect_steady_rounds_allocate_nothing(false, false);
}

TEST(RoundLoopAllocations, SerialAuthenticatedRingAllocatesOnlyForTraceGrowth) {
  expect_steady_rounds_allocate_nothing(true, false);
}

TEST(RoundLoopAllocations, SerialOracleRingAllocatesOnlyForAmortisedGrowth) {
  expect_steady_rounds_allocate_nothing(false, true);
}

TEST(RoundLoopAllocations, ThreadedPlainRingAllocatesOnlyForTraceGrowth) {
  // Each threaded round is one ThreadPool::parallel_chunks call over the four
  // machines; the call itself allocates nothing.
  expect_steady_rounds_allocate_nothing(false, false, 4);
}

TEST(RoundLoopAllocations, SerialCatalogBatchAllocatesOnlyForGrowthAndTheCollector) {
  // The catalog's seed-1 batch pointer-chasing run: 4 instances on 4
  // machines for 105 rounds, every block record, frontier and done message
  // inside BitString's inline buffer. Its machines re-read their unchanged
  // block records from their own cache slots and keep their per-instance
  // state in reused rows, so a steady machine-round allocates nothing. The
  // bound over rounds [20, 104): kAllowedAllocations for the amortised
  // growth of RoundStats, the annotation, the transcript and the memo (as
  // in the oracle leg), plus one allocation per round for the collector's
  // running answer set, the one message too long for the inline buffer
  // (it runs only in the last rounds; 19 allocations in all were measured).
  // A round body with three std::maps and a copied payload per machine
  // made 1,703 here, about 5 per machine-round.
  const serve::Scenario sc = serve::make_scenario("batch-pointer-chasing", 1, 0);
  constexpr std::uint64_t kFrom = 20;
  constexpr std::uint64_t kTo = 104;
  auto oracle = sc.make_oracle();
  MpcSimulation sim(sc.config, oracle);
  AllocationProbe probe(kFrom, kTo);
  const MpcRunResult result = sim.run(*sc.algo, sc.initial, &probe);

  ASSERT_TRUE(result.completed);
  ASSERT_GT(result.rounds_used, kTo);
  const std::uint64_t bound = kAllowedAllocations + (kTo - kFrom);
  EXPECT_LE(probe.steady_allocations(), bound)
      << "heap allocations in rounds [" << kFrom << ", " << kTo << ") of "
      << result.rounds_used;
  ::testing::Test::RecordProperty("steady_allocations",
                                  std::to_string(probe.steady_allocations()));
}

}  // namespace
}  // namespace mpch::mpc
