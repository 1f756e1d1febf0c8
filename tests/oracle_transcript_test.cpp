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
  EXPECT_EQ(transcript->size(), 0u);  // buffered until the barrier flushes
  m0.flush();
  m1.flush();
  m0.begin_round(1);
  m0.query(BitString::from_uint(7, 16));
  m0.flush();

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
  co.flush();
  // Transcript records the answer too.
  ASSERT_EQ(transcript->size(), 1u);
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

TEST(OracleTranscript, RecordAndRestoreRejectKeysThatDoNotIncrease) {
  // Round, then machine, then seq, each increasing: the order the barrier
  // appends in. Anything else is refused and leaves the log as it was.
  OracleTranscript t;
  append(t, {0, 1, 10, 100, 101, 110, 200});
  const std::vector<std::uint64_t> good = {0, 1, 10, 100, 101, 110, 200};
  EXPECT_THROW(append(t, {200}), std::invalid_argument);  // an equal key
  EXPECT_THROW(append(t, {110}), std::invalid_argument);  // an earlier machine
  EXPECT_THROW(append(t, {199}), std::invalid_argument);  // an earlier round
  EXPECT_EQ(keys(t.records()), good);
  append(t, {201});
  EXPECT_EQ(t.size(), good.size() + 1);

  OracleTranscript source;
  append(source, {10});
  append(source, {11});
  std::vector<QueryRecord> swapped = source.records();
  std::swap(swapped[0], swapped[1]);
  EXPECT_THROW(t.restore(swapped), std::invalid_argument);
  std::vector<QueryRecord> repeated = {source.records()[0], source.records()[0]};
  EXPECT_THROW(t.restore(repeated), std::invalid_argument);
  EXPECT_EQ(t.size(), good.size() + 1);  // a rejected restore changes nothing

  t.restore(source.records());
  EXPECT_EQ(keys(t.records()), (std::vector<std::uint64_t>{10, 11}));
  EXPECT_THROW(append(t, {1}), std::invalid_argument);  // appends follow the restored log
  append(t, {100});
  t.clear();
  append(t, {0});  // a cleared log takes any key
  EXPECT_EQ(t.size(), 1u);
}

TEST(CountingOracle, FlushMovesTheBufferInQueryOrder) {
  auto inner = make_inner();
  auto transcript = std::make_shared<OracleTranscript>();
  CountingOracle co(inner, 3, 10, transcript);
  co.begin_round(2);
  for (std::uint64_t v : {9, 4, 9}) co.query(BitString::from_uint(v, 16));
  co.flush();
  co.flush();  // the buffer is empty now: nothing is appended twice
  ASSERT_EQ(transcript->size(), 3u);
  const std::vector<std::uint64_t> inputs = {9, 4, 9};
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const QueryRecord& r = transcript->records()[i];
    EXPECT_EQ(r.round, 2u);
    EXPECT_EQ(r.machine, 3u);
    EXPECT_EQ(r.seq, i);
    EXPECT_EQ(r.input, BitString::from_uint(inputs[i], 16));
    EXPECT_EQ(r.output, inner->query(r.input));
  }
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
