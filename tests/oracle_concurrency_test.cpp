// oracle_concurrency_test.cpp — the oracle substrate under raw std::thread
// hammering (no simulation harness in the loop).
//
// The parallel round path rests on three properties proven here in
// isolation: (1) LazyRandomOracle's memo is interleaving-independent — the
// materialised sub-function after a concurrent storm equals a serial replay
// of the same query set, and total_queries() is exact; (2) per-machine
// CountingOracles over one shared RO buffer their own records with exact
// per-machine seq numbering, so flushing the buffers in machine order after
// each round rebuilds the serial transcript; (3) budget overruns throw
// deterministically at the same query index regardless of what other
// threads are doing.
#include "hash/oracle_transcript.hpp"
#include "hash/random_oracle.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace mpch::hash {
namespace {

using util::BitString;

constexpr std::size_t kBits = 20;
constexpr std::size_t kThreads = 8;

TEST(OracleConcurrency, LazyMemoMatchesSerialReplay) {
  LazyRandomOracle concurrent(kBits, kBits, 42);

  // Each thread queries an overlapping window of inputs, several times, so
  // the same key races across threads and shards.
  const std::uint64_t kDistinct = 512;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&concurrent, t] {
      for (int pass = 0; pass < 3; ++pass) {
        for (std::uint64_t v = t * 32; v < t * 32 + kDistinct; ++v) {
          concurrent.query(BitString::from_uint(v % kDistinct, kBits));
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  LazyRandomOracle serial(kBits, kBits, 42);
  for (std::uint64_t v = 0; v < kDistinct; ++v) {
    serial.query(BitString::from_uint(v, kBits));
  }

  EXPECT_EQ(concurrent.total_queries(), kThreads * 3 * kDistinct);
  EXPECT_EQ(concurrent.touched_entries(), serial.touched_entries());
  auto ct = concurrent.touched_table();
  auto st = serial.touched_table();
  ASSERT_EQ(ct.size(), st.size());
  for (std::size_t i = 0; i < ct.size(); ++i) {
    EXPECT_EQ(ct[i].first, st[i].first) << i;
    EXPECT_EQ(ct[i].second, st[i].second) << i;
  }
}

TEST(OracleConcurrency, CountingOraclesRebuildSerialTranscript) {
  auto inner = std::make_shared<LazyRandomOracle>(kBits, kBits, 7);
  auto transcript = std::make_shared<OracleTranscript>();
  const std::uint64_t kMachines = kThreads;
  const std::uint64_t kPerRound = 64;
  const std::uint64_t kRounds = 3;

  std::vector<std::unique_ptr<CountingOracle>> oracles;
  for (std::uint64_t m = 0; m < kMachines; ++m) {
    oracles.push_back(std::make_unique<CountingOracle>(inner, m, kPerRound, transcript));
  }

  // Round structure mirrors the simulation: begin_round on all machines,
  // then one thread per machine issuing its round's queries concurrently,
  // then the barrier flushing every machine's buffer in machine order.
  for (std::uint64_t round = 0; round < kRounds; ++round) {
    for (auto& o : oracles) o->begin_round(round);
    std::vector<std::thread> threads;
    for (std::uint64_t m = 0; m < kMachines; ++m) {
      threads.emplace_back([&, m] {
        for (std::uint64_t q = 0; q < kPerRound; ++q) {
          // Overlapping inputs across machines: the shared memo races too.
          oracles[m]->query(BitString::from_uint((m * 17 + q * 3 + round) % 256, kBits));
        }
      });
    }
    for (auto& th : threads) th.join();
    for (auto& o : oracles) o->flush();
  }

  // Serial replay with the same per-machine query program.
  auto inner2 = std::make_shared<LazyRandomOracle>(kBits, kBits, 7);
  auto expected = std::make_shared<OracleTranscript>();
  std::vector<std::unique_ptr<CountingOracle>> serial;
  for (std::uint64_t m = 0; m < kMachines; ++m) {
    serial.push_back(std::make_unique<CountingOracle>(inner2, m, kPerRound, expected));
  }
  for (std::uint64_t round = 0; round < kRounds; ++round) {
    for (std::uint64_t m = 0; m < kMachines; ++m) {
      serial[m]->begin_round(round);
      for (std::uint64_t q = 0; q < kPerRound; ++q) {
        serial[m]->query(BitString::from_uint((m * 17 + q * 3 + round) % 256, kBits));
      }
      serial[m]->flush();
    }
  }

  EXPECT_EQ(inner->total_queries(), kMachines * kPerRound * kRounds);
  // Both logs must hold every query: two empty logs would compare equal.
  ASSERT_EQ(transcript->size(), kMachines * kPerRound * kRounds);
  ASSERT_EQ(expected->size(), kMachines * kPerRound * kRounds);
  const auto& got = transcript->records();
  const auto& want = expected->records();
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].round, want[i].round) << i;
    EXPECT_EQ(got[i].machine, want[i].machine) << i;
    EXPECT_EQ(got[i].seq, want[i].seq) << i;
    EXPECT_EQ(got[i].input, want[i].input) << i;
    EXPECT_EQ(got[i].output, want[i].output) << i;
  }
  // Per-machine totals survive the concurrency.
  for (std::uint64_t m = 0; m < kMachines; ++m) {
    EXPECT_EQ(oracles[m]->total_queries(), kPerRound * kRounds) << m;
  }
}

TEST(OracleConcurrency, BudgetOverrunsThrowDeterministicallyPerThread) {
  auto inner = std::make_shared<LazyRandomOracle>(kBits, kBits, 13);
  const std::uint64_t kBudget = 10;
  const std::uint64_t kAttempts = 25;

  std::vector<std::unique_ptr<CountingOracle>> oracles;
  for (std::uint64_t m = 0; m < kThreads; ++m) {
    oracles.push_back(std::make_unique<CountingOracle>(inner, m, kBudget, nullptr));
    oracles.back()->begin_round(0);
  }

  std::vector<std::uint64_t> succeeded(kThreads, 0);
  std::vector<int> threw(kThreads, 0);
  std::vector<std::thread> threads;
  for (std::uint64_t m = 0; m < kThreads; ++m) {
    threads.emplace_back([&, m] {
      for (std::uint64_t q = 0; q < kAttempts; ++q) {
        try {
          oracles[m]->query(BitString::from_uint(m * 1000 + q, kBits));
          ++succeeded[m];
        } catch (const QueryBudgetExceeded&) {
          ++threw[m];
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  // Every machine gets *exactly* its budget through, then throws on every
  // further attempt — no lost updates, no over-admission, on any thread.
  for (std::uint64_t m = 0; m < kThreads; ++m) {
    EXPECT_EQ(succeeded[m], kBudget) << m;
    EXPECT_EQ(threw[m], static_cast<int>(kAttempts - kBudget)) << m;
    EXPECT_EQ(oracles[m]->queries_this_round(), kBudget) << m;
    EXPECT_EQ(oracles[m]->remaining_budget(), 0u) << m;
  }
  EXPECT_EQ(inner->total_queries(), kThreads * kBudget);
}

TEST(OracleConcurrency, Sha256CounterIsExactUnderThreads) {
  Sha256Oracle oracle(kBits, kBits);
  std::vector<std::thread> threads;
  const std::uint64_t kEach = 200;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&oracle, t] {
      for (std::uint64_t q = 0; q < kEach; ++q) {
        oracle.query(BitString::from_uint(t * kEach + q, kBits));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(oracle.total_queries(), kThreads * kEach);
}

}  // namespace
}  // namespace mpch::hash
