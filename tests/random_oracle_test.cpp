#include "hash/random_oracle.hpp"

#include <gtest/gtest.h>

#include <unordered_set>

#include "util/bitstring.hpp"
#include "util/rng.hpp"

namespace mpch::hash {
namespace {

using util::BitString;

TEST(LazyRandomOracle, IsAFunction) {
  LazyRandomOracle ro(16, 16, 42);
  BitString x = BitString::from_uint(0x1234, 16);
  BitString y1 = ro.query(x);
  BitString y2 = ro.query(x);
  EXPECT_EQ(y1, y2);
  EXPECT_EQ(ro.touched_entries(), 1u);
  EXPECT_EQ(ro.total_queries(), 2u);
}

TEST(LazyRandomOracle, OrderIndependent) {
  // Two oracles with the same seed queried in different orders agree.
  LazyRandomOracle a(16, 16, 7), b(16, 16, 7);
  BitString x1 = BitString::from_uint(1, 16);
  BitString x2 = BitString::from_uint(2, 16);
  BitString a1 = a.query(x1);
  BitString a2 = a.query(x2);
  BitString b2 = b.query(x2);
  BitString b1 = b.query(x1);
  EXPECT_EQ(a1, b1);
  EXPECT_EQ(a2, b2);
}

TEST(LazyRandomOracle, DifferentSeedsDiffer) {
  LazyRandomOracle a(16, 16, 1), b(16, 16, 2);
  BitString x = BitString::from_uint(99, 16);
  EXPECT_NE(a.query(x), b.query(x));
}

TEST(LazyRandomOracle, RejectsWrongInputWidth) {
  LazyRandomOracle ro(16, 16, 0);
  EXPECT_THROW(ro.query(BitString::from_uint(1, 8)), std::invalid_argument);
}

TEST(LazyRandomOracle, OutputWidthHonoured) {
  LazyRandomOracle ro(8, 131, 5);
  EXPECT_EQ(ro.query(BitString::from_uint(3, 8)).size(), 131u);
}

TEST(LazyRandomOracle, OutputsLookUniform) {
  LazyRandomOracle ro(32, 64, 11);
  std::uint64_t ones = 0;
  const int kQueries = 2000;
  for (int i = 0; i < kQueries; ++i) {
    ones += ro.query(BitString::from_uint(i, 32)).popcount();
  }
  double frac = static_cast<double>(ones) / (64.0 * kQueries);
  EXPECT_NEAR(frac, 0.5, 0.01);
}

TEST(LazyRandomOracle, NoCollisionsAcrossDistinctInputs) {
  LazyRandomOracle ro(24, 64, 13);
  std::unordered_set<std::uint64_t> seen;
  for (int i = 0; i < 4000; ++i) {
    seen.insert(ro.query(BitString::from_uint(i, 24)).hash());
  }
  EXPECT_EQ(seen.size(), 4000u);
}

TEST(LazyRandomOracle, TouchedTableSortedAndComplete) {
  LazyRandomOracle ro(8, 8, 3);
  for (int i : {5, 1, 3}) ro.query(BitString::from_uint(i, 8));
  auto table = ro.touched_table();
  ASSERT_EQ(table.size(), 3u);
  EXPECT_TRUE(table[0].first < table[1].first);
  EXPECT_TRUE(table[1].first < table[2].first);
}

TEST(ExhaustiveRandomOracle, CoversFullDomain) {
  util::Rng rng(9);
  ExhaustiveRandomOracle ro(10, 10, rng);
  EXPECT_EQ(ro.table().size(), 1024u);
  EXPECT_EQ(ro.table_bits(), 10240u);
  for (std::uint64_t i : {0ULL, 511ULL, 1023ULL}) {
    EXPECT_EQ(ro.query(BitString::from_uint(i, 10)), ro.table()[i]);
  }
}

TEST(ExhaustiveRandomOracle, SetEntryOverrides) {
  util::Rng rng(2);
  ExhaustiveRandomOracle ro(6, 6, rng);
  BitString patched = BitString::from_uint(0b101010, 6);
  ro.set_entry(17, patched);
  EXPECT_EQ(ro.query(BitString::from_uint(17, 6)), patched);
  EXPECT_THROW(ro.set_entry(64, patched), std::out_of_range);
  EXPECT_THROW(ro.set_entry(3, BitString::from_uint(0, 5)), std::invalid_argument);
}

TEST(ExhaustiveRandomOracle, RejectsHugeDomain) {
  util::Rng rng(1);
  EXPECT_THROW(ExhaustiveRandomOracle(23, 8, rng), std::invalid_argument);
}

TEST(ExhaustiveRandomOracle, EqualityAndCopy) {
  util::Rng rng(4);
  ExhaustiveRandomOracle a(8, 8, rng);
  ExhaustiveRandomOracle b = a;
  EXPECT_TRUE(a == b);
  b.set_entry(0, BitString::from_uint(1, 8));
  EXPECT_FALSE(a == b);
}

TEST(Sha256Oracle, DeterministicPublicFunction) {
  Sha256Oracle a(32, 48);
  Sha256Oracle b(32, 48);
  BitString x = BitString::from_uint(0xCAFE, 32);
  EXPECT_EQ(a.query(x), b.query(x));
  EXPECT_EQ(a.query(x).size(), 48u);
}

TEST(Sha256Oracle, DomainSeparatedFromLazy) {
  // A seeded lazy oracle and the public hash oracle must disagree (they are
  // different functions by construction).
  Sha256Oracle pub(32, 32);
  LazyRandomOracle priv(32, 32, 0);
  BitString x = BitString::from_uint(7, 32);
  EXPECT_NE(pub.query(x), priv.query(x));
}

TEST(Sha256Expand, ProducesRequestedBitsDeterministically) {
  std::vector<std::uint8_t> prefix = {1, 2, 3};
  util::BitString a = sha256_expand(prefix, 777);
  util::BitString b = sha256_expand(prefix, 777);
  EXPECT_EQ(a.size(), 777u);
  EXPECT_EQ(a, b);
  util::BitString c = sha256_expand({1, 2, 4}, 777);
  EXPECT_NE(a, c);
  // A prefix of the expansion equals the shorter expansion (counter mode).
  util::BitString d = sha256_expand(prefix, 100);
  EXPECT_EQ(a.slice(0, 100), d);
}

BitString pattern(std::size_t n, unsigned k) {
  BitString b(n);
  for (std::size_t i = 0; i < n; ++i) b.set(i, ((i * k + 3) % 5) < 2);
  return b;
}

TEST(Sha256Expand, GoldenValues) {
  // Recorded before the expansion and the oracles hashed in place: a
  // 513-bit expansion spans three counter blocks and ends mid-byte.
  EXPECT_EQ(sha256_expand({1, 2, 3}, 0).size(), 0u);
  EXPECT_EQ(sha256_expand({1, 2, 3}, 513).to_hex_string(),
            "33039fca04699df0cbf328f37d8fd61eeac2612d2d2cddb89d4c6fc4a4a1a3de6d0d07a7d8f116124cf"
            "7dc8817849be15168935f3a61991db4effbc3e7bdb8c68");
  LazyRandomOracle lazy(40, 300, 5);
  EXPECT_EQ(lazy.query(pattern(40, 3)).to_hex_string(),
            "9081479aab5de966ae0f9cb5a033324be324790fadd7f9ed7099245ff6451dbf6d657c7d0f8");
  Sha256Oracle pub(40, 77);
  EXPECT_EQ(pub.query(pattern(40, 3)).to_hex_string(), "3c077491c76943fe77d0");
}

TEST(Sha256Expand, InPlacePrefixMatchesByteVector) {
  // Feeding the prefix through update() in pieces gives the same expansion
  // as the concatenated byte vector.
  const std::vector<std::uint8_t> prefix = {9, 8, 7, 6, 5, 4, 3, 2, 1};
  Sha256 h;
  h.update(prefix.data(), 4);
  h.update(prefix.data() + 4, prefix.size() - 4);
  EXPECT_EQ(sha256_expand(h, 600), sha256_expand(prefix, 600));
  EXPECT_EQ(sha256_expand_u64(h), sha256_expand(prefix, 64).get_uint(0, 64));
}

}  // namespace
}  // namespace mpch::hash
