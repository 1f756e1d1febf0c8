#include "util/bitstring.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "bitstring_differential.hpp"
#include "reference_bitstring.hpp"
#include "util/rng.hpp"

namespace mpch::util {
namespace {

TEST(BitString, DefaultIsEmpty) {
  BitString b;
  EXPECT_EQ(b.size(), 0u);
  EXPECT_TRUE(b.empty());
}

TEST(BitString, ZeroInitialised) {
  BitString b(17);
  EXPECT_EQ(b.size(), 17u);
  for (std::size_t i = 0; i < 17; ++i) EXPECT_FALSE(b.get(i)) << i;
  EXPECT_EQ(b.popcount(), 0u);
}

TEST(BitString, SetAndGet) {
  BitString b(10);
  b.set(0, true);
  b.set(9, true);
  b.set(4, true);
  EXPECT_TRUE(b.get(0));
  EXPECT_TRUE(b.get(4));
  EXPECT_TRUE(b.get(9));
  EXPECT_FALSE(b.get(1));
  EXPECT_EQ(b.popcount(), 3u);
  b.set(4, false);
  EXPECT_FALSE(b.get(4));
  EXPECT_EQ(b.popcount(), 2u);
}

TEST(BitString, FromUintMsbFirst) {
  BitString b = BitString::from_uint(0b1011, 4);
  EXPECT_TRUE(b.get(0));
  EXPECT_FALSE(b.get(1));
  EXPECT_TRUE(b.get(2));
  EXPECT_TRUE(b.get(3));
  EXPECT_EQ(b.to_binary_string(), "1011");
}

TEST(BitString, FromUintRejectsWideWidth) {
  EXPECT_THROW(BitString::from_uint(0, 65), std::invalid_argument);
}

TEST(BitString, BinaryStringRoundTrip) {
  const std::string s = "110100100010111010001";
  BitString b = BitString::from_binary_string(s);
  EXPECT_EQ(b.size(), s.size());
  EXPECT_EQ(b.to_binary_string(), s);
}

TEST(BitString, BinaryStringRejectsGarbage) {
  EXPECT_THROW(BitString::from_binary_string("01x"), std::invalid_argument);
}

TEST(BitString, GetUintSetUintRoundTrip) {
  BitString b(100);
  b.set_uint(3, 40, 0xABCDEF1234ULL);
  EXPECT_EQ(b.get_uint(3, 40), 0xABCDEF1234ULL);
  // Neighbouring bits untouched.
  EXPECT_FALSE(b.get(0));
  EXPECT_FALSE(b.get(1));
  EXPECT_FALSE(b.get(2));
  EXPECT_FALSE(b.get(43));
}

TEST(BitString, GetUint64Full) {
  BitString b(64);
  b.set_uint(0, 64, 0xDEADBEEFCAFEF00DULL);
  EXPECT_EQ(b.get_uint(0, 64), 0xDEADBEEFCAFEF00DULL);
}

TEST(BitString, GetUintOutOfRangeThrows) {
  BitString b(10);
  EXPECT_THROW(b.get_uint(5, 6), std::out_of_range);
  EXPECT_THROW(b.get(10), std::out_of_range);
}

TEST(BitString, SliceAlignedAndUnaligned) {
  BitString b = BitString::from_binary_string("1101001000101110");
  EXPECT_EQ(b.slice(0, 8).to_binary_string(), "11010010");
  EXPECT_EQ(b.slice(8, 8).to_binary_string(), "00101110");
  EXPECT_EQ(b.slice(3, 7).to_binary_string(), "1001000");
  EXPECT_EQ(b.slice(15, 1).to_binary_string(), "0");
  EXPECT_EQ(b.slice(0, 0).size(), 0u);
}

TEST(BitString, SpliceOverwrites) {
  BitString b(12);
  b.splice(4, BitString::from_binary_string("1111"));
  EXPECT_EQ(b.to_binary_string(), "000011110000");
}

TEST(BitString, Concatenation) {
  BitString a = BitString::from_binary_string("101");
  BitString b = BitString::from_binary_string("0110");
  EXPECT_EQ((a + b).to_binary_string(), "1010110");
  a += b;
  EXPECT_EQ(a.to_binary_string(), "1010110");
}

TEST(BitString, PadZerosAndTruncate) {
  BitString b = BitString::from_binary_string("11");
  b.pad_zeros(3);
  EXPECT_EQ(b.to_binary_string(), "11000");
  b.truncate(2);
  EXPECT_EQ(b.to_binary_string(), "11");
  EXPECT_THROW(b.truncate(5), std::out_of_range);
}

TEST(BitString, XorAndLengthMismatch) {
  BitString a = BitString::from_binary_string("1100");
  BitString b = BitString::from_binary_string("1010");
  EXPECT_EQ((a ^ b).to_binary_string(), "0110");
  EXPECT_THROW(a ^ BitString::from_binary_string("10"), std::invalid_argument);
}

TEST(BitString, EqualityRespectsLength) {
  BitString a = BitString::from_binary_string("10");
  BitString b = BitString::from_binary_string("100");
  EXPECT_NE(a, b);
  EXPECT_EQ(a, BitString::from_binary_string("10"));
}

TEST(BitString, OrderingByLengthThenBits) {
  EXPECT_LT(BitString::from_binary_string("11"), BitString::from_binary_string("000"));
  EXPECT_LT(BitString::from_binary_string("01"), BitString::from_binary_string("10"));
}

TEST(BitString, TruncateCanonicalisesTailForEquality) {
  // Set a bit, then truncate it away: must equal the all-zero string.
  BitString a(10);
  a.set(9, true);
  a.truncate(9);
  EXPECT_EQ(a, BitString(9));
  EXPECT_EQ(a.hash(), BitString(9).hash());
}

TEST(BitString, HexString) {
  EXPECT_EQ(BitString::from_binary_string("10100001").to_hex_string(), "a1");
  // Non-nibble lengths pad on the right for display.
  EXPECT_EQ(BitString::from_binary_string("101").to_hex_string(), "a");
}

TEST(BitString, HashDiffersAcrossValues) {
  BitString a = BitString::from_binary_string("1010");
  BitString b = BitString::from_binary_string("1011");
  BitString c = BitString::from_binary_string("10100");
  EXPECT_NE(a.hash(), b.hash());
  EXPECT_NE(a.hash(), c.hash());
}

TEST(BitString, RandomHasRequestedLengthAndVariation) {
  Rng rng(7);
  BitString a = BitString::random(131, [&] { return rng.next_u64(); });
  BitString b = BitString::random(131, [&] { return rng.next_u64(); });
  EXPECT_EQ(a.size(), 131u);
  EXPECT_NE(a, b);
  // A uniform 131-bit string has ~65 set bits; allow a generous window.
  EXPECT_GT(a.popcount(), 30u);
  EXPECT_LT(a.popcount(), 100u);
}

TEST(BitString, FromBytes) {
  BitString b = BitString::from_bytes(std::vector<std::uint8_t>{0xFF, 0x00, 0xA5});
  EXPECT_EQ(b.size(), 24u);
  EXPECT_EQ(b.get_uint(0, 8), 0xFFu);
  EXPECT_EQ(b.get_uint(16, 8), 0xA5u);
}

// Property sweep: set_uint/get_uint round-trips across widths and offsets.
class BitStringWidthTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BitStringWidthTest, UintRoundTripAtManyOffsets) {
  std::size_t width = GetParam();
  Rng rng(width * 977 + 13);
  for (std::size_t offset : {0UL, 1UL, 7UL, 8UL, 9UL, 63UL, 64UL, 65UL}) {
    BitString b(offset + width + 17);
    std::uint64_t value = rng.next_u64();
    if (width < 64) value &= (1ULL << width) - 1;
    b.set_uint(offset, width, value);
    EXPECT_EQ(b.get_uint(offset, width), value) << "width=" << width << " offset=" << offset;
  }
}

TEST_P(BitStringWidthTest, SliceConcatIdentity) {
  std::size_t width = GetParam();
  Rng rng(width);
  BitString b = BitString::random(width + 37, [&] { return rng.next_u64(); });
  BitString rebuilt = b.slice(0, width) + b.slice(width, 37);
  EXPECT_EQ(rebuilt, b);
}

INSTANTIATE_TEST_SUITE_P(Widths, BitStringWidthTest,
                         ::testing::Values(1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64));

// ---------------------------------------------------------------------------
// Range contract: checked once per call, throws in every build type.

constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();

TEST(BitStringRange, ZeroLengthAtEndIsValid) {
  BitString b = BitString::from_binary_string("10110");
  EXPECT_EQ(b.slice(5, 0).size(), 0u);
  EXPECT_EQ(b.get_uint(5, 0), 0u);
  EXPECT_NO_THROW(b.set_uint(5, 0, ~0ULL));
  EXPECT_NO_THROW(b.splice(5, BitString()));
  EXPECT_EQ(b.to_binary_string(), "10110");
  BitString empty;
  EXPECT_EQ(empty.slice(0, 0).size(), 0u);
  EXPECT_EQ(empty.get_uint(0, 0), 0u);
  // One past the end is out of range even for zero bits.
  EXPECT_THROW((void)b.slice(6, 0), std::out_of_range);
  EXPECT_THROW((void)b.get_uint(6, 0), std::out_of_range);
  EXPECT_THROW(b.set_uint(6, 0, 0), std::out_of_range);
  EXPECT_THROW(b.splice(6, BitString()), std::out_of_range);
}

TEST(BitStringRange, WrappingRangesAreRejected) {
  // pos + len wraps past SIZE_MAX to a small number that a naive
  // `pos + len > size()` check would accept.
  BitString b(100);
  EXPECT_THROW((void)b.slice(kMax, 2), std::out_of_range);
  EXPECT_THROW((void)b.slice(2, kMax), std::out_of_range);
  EXPECT_THROW((void)b.get_uint(kMax, 2), std::out_of_range);
  EXPECT_THROW((void)b.get_uint(kMax - 1, 64), std::out_of_range);
  EXPECT_THROW(b.set_uint(kMax, 2, 3), std::out_of_range);
  EXPECT_THROW(b.set_uint(kMax - 1, 64, 3), std::out_of_range);
  EXPECT_THROW(b.splice(kMax, BitString(2)), std::out_of_range);
  EXPECT_EQ(b, BitString(100));
}

TEST(BitStringRange, OutOfRangeMessageNamesTheRange) {
  BitString b(10);
  try {
    (void)b.slice(4, 7);
    FAIL() << "slice past the end did not throw";
  } catch (const std::out_of_range& e) {
    EXPECT_STREQ(e.what(), "BitString: range [4, 11) exceeds size 10");
  }
}

TEST(BitStringRange, UintWidthSixtyFourAcceptedSixtyFiveRejected) {
  BitString b(200);
  EXPECT_NO_THROW(b.set_uint(7, 64, 0x0123456789ABCDEFULL));
  EXPECT_EQ(b.get_uint(7, 64), 0x0123456789ABCDEFULL);
  EXPECT_THROW(b.set_uint(7, 65, 0), std::invalid_argument);
  EXPECT_THROW((void)b.get_uint(7, 65), std::invalid_argument);
  // The width check comes before the range check.
  EXPECT_THROW((void)b.get_uint(kMax, 65), std::invalid_argument);
  EXPECT_THROW(b.set_uint(300, 65, 0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Self-aliasing: the operand may be the string being modified.

class BitStringAliasTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BitStringAliasTest, AppendSelfDoubles) {
  const std::size_t n = GetParam();
  Rng rng(n + 5);
  BitString x = BitString::random(n, [&] { return rng.next_u64(); });
  const BitString before = x;
  x += x;
  EXPECT_EQ(x, before + before);
  EXPECT_EQ(x.slice(0, n), before);
  EXPECT_EQ(x.slice(n, n), before);
}

TEST_P(BitStringAliasTest, SpliceSelfAtZeroIsNoOp) {
  const std::size_t n = GetParam();
  Rng rng(n + 9);
  BitString x = BitString::random(n, [&] { return rng.next_u64(); });
  const BitString before = x;
  x.splice(0, x);
  EXPECT_EQ(x, before);
  if (n != 0) {
    EXPECT_THROW(x.splice(1, x), std::out_of_range);
  }
}

INSTANTIATE_TEST_SUITE_P(AlignedAndUnaligned, BitStringAliasTest,
                         ::testing::Values(0, 1, 5, 8, 13, 64, 67, 128, 131, 300));

// ---------------------------------------------------------------------------
// Differential property tests against the bit-at-a-time reference.

ReferenceBitString to_reference(const BitString& b) {
  ReferenceBitString r = ReferenceBitString::from_bytes(b.bytes());
  r.truncate(b.size());
  return r;
}

void expect_same(const BitString& fast, const ReferenceBitString& ref, const std::string& what) {
  ASSERT_EQ(fast.size(), ref.size()) << what;
  ASSERT_EQ(fast.bytes(), ref.bytes()) << what;
  ASSERT_EQ(fast.hash(), ref.hash()) << what;
}

TEST(BitStringDifferential, EveryOffsetAndLength) {
  // Each multi-bit operation at every bit offset 0..63 and every length
  // 0..300, on random contents with a random amount of trailing room.
  Rng rng(20080655);
  auto next = [&] { return rng.next_u64(); };
  for (std::size_t offset = 0; offset < 64; ++offset) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const std::string where = "offset=" + std::to_string(offset) + " len=" + std::to_string(len);
      const BitString base = BitString::random(offset + len + rng.next_below(70), next);
      const BitString other = BitString::random(len, next);
      const ReferenceBitString base_ref = to_reference(base);
      const ReferenceBitString other_ref = to_reference(other);
      const std::size_t width = std::min<std::size_t>(len, 64);
      const std::uint64_t value = rng.next_u64();

      ASSERT_EQ(base.get_uint(offset, width), base_ref.get_uint(offset, width)) << where;
      expect_same(base.slice(offset, len), base_ref.slice(offset, len), "slice " + where);

      BitString set = base;
      ReferenceBitString set_ref = base_ref;
      set.set_uint(offset, width, value);
      set_ref.set_uint(offset, width, value);
      expect_same(set, set_ref, "set_uint " + where);

      BitString spliced = base;
      ReferenceBitString spliced_ref = base_ref;
      spliced.splice(offset, other);
      spliced_ref.splice(offset, other_ref);
      expect_same(spliced, spliced_ref, "splice " + where);

      const BitString prefix = base.slice(0, offset);
      const ReferenceBitString prefix_ref = base_ref.slice(0, offset);
      expect_same(prefix + other, prefix_ref + other_ref, "operator+ " + where);
      BitString appended = prefix;
      ReferenceBitString appended_ref = prefix_ref;
      appended += other;
      appended_ref += other_ref;
      expect_same(appended, appended_ref, "operator+= " + where);
    }
  }
}

// ---------------------------------------------------------------------------
// The inline/heap switch: strings of up to BitString::kInlineBytes bytes (128
// bits) live inside the object, longer ones on the heap. Every operation
// that crosses the boundary must agree with the reference.

constexpr std::size_t kInlineBits = BitString::kInlineBytes * 8;

BitString random_bits(std::size_t n, Rng& rng) {
  return BitString::random(n, [&] { return rng.next_u64(); });
}

TEST(BitStringStorage, BoundarySizesMatchReference) {
  Rng rng(128);
  for (std::size_t n : {0, 127, 128, 129, 255}) {
    const std::string where = "n=" + std::to_string(n);
    BitString x = random_bits(n, rng);
    ReferenceBitString ref = to_reference(x);
    expect_same(x, ref, where);
    expect_same(BitString(n), ReferenceBitString(n), where + " zeros");
    if (n >= 64) {
      x.set_uint(n - 64, 64, 0x0123456789ABCDEFULL);
      ref.set_uint(n - 64, 64, 0x0123456789ABCDEFULL);
      expect_same(x, ref, where + " set_uint at the end");
      EXPECT_EQ(x.get_uint(n - 64, 64), 0x0123456789ABCDEFULL) << where;
    }
    expect_same(x.slice(0, n), ref.slice(0, n), where + " whole slice");
    const BitString copy = x;
    EXPECT_EQ(copy, x) << where;
    EXPECT_EQ(copy.hash(), x.hash()) << where;
  }
}

TEST(BitStringStorage, AppendAcrossTheBoundary) {
  Rng rng(129);
  // (left, right) pairs that stay inline, land exactly on 128 bits, or spill
  // to the heap from an inline or a heap left operand.
  const std::pair<std::size_t, std::size_t> cases[] = {
      {60, 60}, {64, 64}, {100, 28}, {100, 29}, {127, 1}, {128, 1}, {121, 13}, {129, 130}};
  for (const auto& [left, right] : cases) {
    const std::string where = std::to_string(left) + " += " + std::to_string(right);
    BitString x = random_bits(left, rng);
    const BitString y = random_bits(right, rng);
    ReferenceBitString ref = to_reference(x);
    x += y;
    ref += to_reference(y);
    expect_same(x, ref, where);
  }
}

TEST(BitStringStorage, AppendSelfFromSixtyFourAndOneTwentyEight) {
  Rng rng(130);
  for (std::size_t n : {64, 128}) {
    BitString x = random_bits(n, rng);
    ReferenceBitString ref = to_reference(x);
    x += x;
    ref += ref;
    expect_same(x, ref, "x += x from " + std::to_string(n));
    x += x;
    ref += ref;
    expect_same(x, ref, "x += x twice from " + std::to_string(n));
  }
}

TEST(BitStringStorage, PadZerosAcrossTheBoundary) {
  Rng rng(131);
  for (std::size_t start : {0, 100, 127, 128}) {
    for (std::size_t pad : {1, 20, 28, 29, 200}) {
      const std::string where = std::to_string(start) + " pad " + std::to_string(pad);
      BitString x = random_bits(start, rng);
      ReferenceBitString ref = to_reference(x);
      x.pad_zeros(pad);
      ref.pad_zeros(pad);
      expect_same(x, ref, where);
      EXPECT_EQ(x.slice(start, pad).popcount(), 0u) << where;
    }
  }
}

TEST(BitStringStorage, TruncateFromHeapThenRegrowReadsZero) {
  // A heap string cut back under 128 bits keeps its buffer; growing it again
  // must not resurface the bits that were cut.
  Rng rng(132);
  for (std::size_t cut : {0, 1, 64, 100, 127, 128}) {
    const std::string where = "cut to " + std::to_string(cut);
    BitString x(300);
    for (std::size_t pos = 0; pos + 64 <= 300; pos += 64) x.set_uint(pos, 64, ~0ULL);
    x.set_uint(236, 64, ~0ULL);
    ReferenceBitString ref = to_reference(x);
    x.truncate(cut);
    ref.truncate(cut);
    expect_same(x, ref, where);
    x.pad_zeros(300 - cut);
    ref.pad_zeros(300 - cut);
    expect_same(x, ref, where + " then padded");
    EXPECT_EQ(x.popcount(), cut) << where;
    x.truncate(cut);
    ref.truncate(cut);
    const BitString tail = random_bits(250, rng);
    x += tail;
    ref += to_reference(tail);
    expect_same(x, ref, where + " then appended");
  }
}

TEST(BitStringStorage, CopyAndMoveAcrossInlineAndHeap) {
  // 0, 8 and 128 bits are inline, 129 and 500 on the heap. The last case is
  // a 400-bit heap string cut to 40 bits: short, but it keeps its heap
  // buffer. build(k) is deterministic and returns without a copy, so every
  // case below starts from the storage its size names (a copy of the last
  // one would be inline).
  constexpr std::size_t kSizes[] = {0, 8, 128, 129, 500, 40};
  constexpr std::size_t kCases = std::size(kSizes);
  auto build = [&](std::size_t k) {
    Rng rng(133 + k);
    BitString x = random_bits(k + 1 == kCases ? 400 : kSizes[k], rng);
    x.truncate(kSizes[k]);
    return x;
  };
  for (std::size_t s = 0; s < kCases; ++s) {
    for (std::size_t d = 0; d < kCases; ++d) {
      const std::string where = std::to_string(kSizes[d]) + " <- " + std::to_string(kSizes[s]);
      const BitString src = build(s);
      BitString copy_constructed(src);
      EXPECT_EQ(copy_constructed, src) << where;

      BitString copy_assigned = build(d);
      copy_assigned = src;
      EXPECT_EQ(copy_assigned, src) << where;
      EXPECT_EQ(copy_assigned.hash(), src.hash()) << where;

      // The sources of the moves live in an array and are read back by
      // element: a moved-from string must be empty and fully usable.
      std::array<BitString, 2> moved = {build(s), build(s)};
      const BitString move_constructed(std::move(moved[0]));
      EXPECT_EQ(move_constructed, src) << where;
      BitString move_assigned = build(d);
      move_assigned = std::move(moved[1]);
      EXPECT_EQ(move_assigned, src) << where;
      for (BitString& m : moved) {
        EXPECT_TRUE(m.empty()) << where;
        EXPECT_EQ(m, BitString()) << where;
        m += src;
        m.pad_zeros(3);
        EXPECT_EQ(m, src + BitString(3)) << where;
      }
    }
  }
}

TEST(BitStringStorage, SelfAssignmentKeepsTheValue) {
  Rng rng(134);
  for (std::size_t n : {0, 64, 128, 129, 300}) {
    BitString x = random_bits(n, rng);
    const BitString before = x;
    BitString& alias = x;
    x = alias;
    EXPECT_EQ(x, before) << n;
    x = std::move(alias);
    EXPECT_EQ(x, before) << n;
  }
}

TEST(BitStringDifferential, SeededRandomOpSequences) {
  // Random byte strings decoded as op sequences by the fuzz harness's driver.
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    Rng rng(seed);
    std::vector<std::uint8_t> bytes(64 + rng.next_below(960));
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_u64());
    const std::optional<std::string> diff = run_bitstring_differential(bytes.data(), bytes.size());
    ASSERT_FALSE(diff.has_value()) << "seed " << seed << ": " << *diff;
  }
}

}  // namespace
}  // namespace mpch::util
