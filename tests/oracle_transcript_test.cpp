#include "hash/oracle_transcript.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace mpch::hash {
namespace {

using util::BitString;

std::shared_ptr<RandomOracle> make_inner() {
  return std::make_shared<LazyRandomOracle>(16, 16, 123);
}

TEST(CountingOracle, EnforcesPerRoundBudget) {
  auto transcript = std::make_shared<OracleTranscript>();
  CountingOracle co(make_inner(), 0, 3, transcript);
  co.begin_round(0);
  for (int i = 0; i < 3; ++i) co.query(BitString::from_uint(i, 16));
  EXPECT_EQ(co.remaining_budget(), 0u);
  EXPECT_THROW(co.query(BitString::from_uint(9, 16)), QueryBudgetExceeded);
}

TEST(CountingOracle, BudgetResetsEachRound) {
  auto transcript = std::make_shared<OracleTranscript>();
  CountingOracle co(make_inner(), 0, 2, transcript);
  co.begin_round(0);
  co.query(BitString::from_uint(1, 16));
  co.query(BitString::from_uint(2, 16));
  co.begin_round(1);
  EXPECT_EQ(co.remaining_budget(), 2u);
  co.query(BitString::from_uint(3, 16));
  EXPECT_EQ(co.queries_this_round(), 1u);
  EXPECT_EQ(co.total_queries(), 3u);
}

TEST(CountingOracle, RecordsTranscriptWithRoundAndMachine) {
  auto transcript = std::make_shared<OracleTranscript>();
  auto inner = make_inner();
  CountingOracle m0(inner, 0, 10, transcript);
  CountingOracle m1(inner, 1, 10, transcript);
  m0.begin_round(0);
  m1.begin_round(0);
  m0.query(BitString::from_uint(5, 16));
  m1.query(BitString::from_uint(6, 16));
  m0.begin_round(1);
  m0.query(BitString::from_uint(7, 16));

  ASSERT_EQ(transcript->size(), 3u);
  EXPECT_EQ(transcript->queries_of(0, 0).size(), 1u);
  EXPECT_EQ(transcript->queries_of(1, 0).size(), 1u);
  EXPECT_EQ(transcript->queries_of(0, 1).size(), 1u);
  EXPECT_EQ(transcript->queries_of(1, 1).size(), 0u);
  EXPECT_EQ(transcript->queries_up_to(0).size(), 2u);
  EXPECT_EQ(transcript->queries_up_to(1).size(), 3u);
}

TEST(CountingOracle, AnswersMatchInnerOracle) {
  auto inner = make_inner();
  auto transcript = std::make_shared<OracleTranscript>();
  CountingOracle co(inner, 0, 10, transcript);
  co.begin_round(0);
  BitString x = BitString::from_uint(77, 16);
  EXPECT_EQ(co.query(x), inner->query(x));
  // Transcript records the answer too.
  EXPECT_EQ(transcript->records()[0].output, inner->query(x));
}

TEST(CountingOracle, SharedInnerOracleIsConsistentAcrossMachines) {
  auto inner = make_inner();
  auto transcript = std::make_shared<OracleTranscript>();
  CountingOracle m0(inner, 0, 10, transcript);
  CountingOracle m1(inner, 1, 10, transcript);
  m0.begin_round(0);
  m1.begin_round(0);
  BitString x = BitString::from_uint(1000, 16);
  EXPECT_EQ(m0.query(x), m1.query(x));
}

TEST(OracleTranscript, IntersectCountDistinctTargets) {
  OracleTranscript t;
  std::vector<BitString> inputs = {BitString::from_uint(1, 8), BitString::from_uint(2, 8),
                                   BitString::from_uint(1, 8)};
  std::vector<BitString> targets = {BitString::from_uint(1, 8), BitString::from_uint(3, 8)};
  EXPECT_EQ(t.intersect_count(inputs, targets), 1u);
  targets.push_back(BitString::from_uint(2, 8));
  EXPECT_EQ(t.intersect_count(inputs, targets), 2u);
}

// Appends one record per key, a key being round*100 + machine*10 + seq;
// keys() reads them back.
void append(OracleTranscript& t, std::initializer_list<std::uint64_t> keys) {
  for (std::uint64_t k : keys) {
    const BitString bits = BitString::from_uint(k, 16);
    t.record(k / 100, k / 10 % 10, bits, bits, k % 10);
  }
}

std::vector<std::uint64_t> keys(const std::vector<QueryRecord>& records) {
  std::vector<std::uint64_t> out;
  for (const auto& r : records) out.push_back(r.round * 100 + r.machine * 10 + r.seq);
  return out;
}

TEST(OracleTranscript, SerialAppendsAreNeverSortedAgain) {
  // Round, then machine, then seq, each increasing: the order a serial run
  // records in. The log stays canonical, so no sort runs.
  OracleTranscript t;
  append(t, {0, 1, 10, 100, 101, 110, 200, 201, 210});
  EXPECT_TRUE(t.canonical());
  const std::vector<QueryRecord> before = t.records();
  EXPECT_EQ(t.canonical_records(), before);
  t.sort_canonical();
  EXPECT_EQ(t.records(), before);
}

TEST(OracleTranscript, OutOfOrderAppendsComeOutCanonical) {
  // A parallel round's interleaving: machine 1 appends before machine 0.
  OracleTranscript t;
  append(t, {0, 110, 100, 101, 111});
  EXPECT_FALSE(t.canonical());
  const std::vector<std::uint64_t> want = {0, 100, 101, 110, 111};
  EXPECT_EQ(keys(t.canonical_records()), want);  // a sorted copy; the live log is untouched
  EXPECT_EQ(keys(t.records()), (std::vector<std::uint64_t>{0, 110, 100, 101, 111}));
  t.sort_canonical();
  EXPECT_TRUE(t.canonical());
  EXPECT_EQ(keys(t.records()), want);
  append(t, {111});  // an equal key is never canonical
  t.sort_canonical();
  EXPECT_FALSE(t.canonical());
}

TEST(OracleTranscript, RestoredUnsortedRecordsComeOutCanonical) {
  OracleTranscript source;
  append(source, {10, 0, 1});
  OracleTranscript t;
  t.restore(source.records());
  EXPECT_FALSE(t.canonical());
  append(t, {100});
  t.sort_canonical();
  EXPECT_EQ(keys(t.records()), (std::vector<std::uint64_t>{0, 1, 10, 100}));
  t.restore(t.records());
  EXPECT_TRUE(t.canonical());
  t.restore(source.records());
  t.clear();
  EXPECT_TRUE(t.canonical());
}

TEST(CountingOracle, NullInnerRejected) {
  auto transcript = std::make_shared<OracleTranscript>();
  EXPECT_THROW(CountingOracle(nullptr, 0, 1, transcript), std::invalid_argument);
}

TEST(CountingOracle, ZeroBudgetRejectsImmediately) {
  auto transcript = std::make_shared<OracleTranscript>();
  CountingOracle co(make_inner(), 0, 0, transcript);
  co.begin_round(0);
  EXPECT_THROW(co.query(BitString::from_uint(0, 16)), QueryBudgetExceeded);
}

}  // namespace
}  // namespace mpch::hash
