#include "util/serialize.hpp"

#include <gtest/gtest.h>

#include <type_traits>

#include "util/rng.hpp"

namespace mpch::util {
namespace {

// BitReader borrows the string it reads: it binds to an lvalue, and a
// temporary, which would die before the first read, does not compile.
static_assert(std::is_constructible_v<BitReader, const BitString&>);
static_assert(!std::is_constructible_v<BitReader, BitString&&>);

TEST(BitWriter, WritesFixedWidthFields) {
  BitWriter w;
  w.write_uint(0b101, 3);
  w.write_uint(0xFF, 8);
  w.write_bool(true);
  EXPECT_EQ(w.bit_count(), 12u);
  EXPECT_EQ(w.take().to_binary_string(), "101111111111");
  EXPECT_EQ(w.bit_count(), 0u);
}

TEST(BitWriter, RejectsOverflowingValue) {
  BitWriter w;
  EXPECT_THROW(w.write_uint(8, 3), std::invalid_argument);
  EXPECT_THROW(w.write_uint(0, 65), std::invalid_argument);
}

TEST(BitWriter, WriteBitsAppends) {
  BitWriter w;
  w.write_bits(BitString::from_binary_string("110"));
  w.write_bits(BitString::from_binary_string("01"));
  EXPECT_EQ(w.take().to_binary_string(), "11001");
}

TEST(BitReader, ReadsBackInOrder) {
  BitWriter w;
  w.write_uint(42, 17);
  w.write_bool(false);
  w.write_uint(7, 3);
  w.write_bits(BitString::from_binary_string("1001"));
  const BitString bits = w.take();
  BitReader r(bits);
  EXPECT_EQ(r.read_uint(17), 42u);
  EXPECT_FALSE(r.read_bool());
  EXPECT_EQ(r.read_uint(3), 7u);
  EXPECT_EQ(r.read_bits(4).to_binary_string(), "1001");
  EXPECT_TRUE(r.exhausted());
}

TEST(BitReader, ThrowsOnOverread) {
  const BitString bits = BitString::from_binary_string("101");
  BitReader r(bits);
  r.read_uint(2);
  EXPECT_THROW(r.read_uint(2), std::out_of_range);
  EXPECT_EQ(r.remaining(), 1u);
}

TEST(BitReader, PositionTracks) {
  const BitString bits(32);
  BitReader r(bits);
  EXPECT_EQ(r.position(), 0u);
  r.read_uint(10);
  EXPECT_EQ(r.position(), 10u);
  r.read_bits(5);
  EXPECT_EQ(r.position(), 15u);
  EXPECT_EQ(r.remaining(), 17u);
}

// Property: arbitrary field sequences round-trip.
TEST(Serialize, RandomFieldSequencesRoundTrip) {
  Rng rng(2024);
  for (int iter = 0; iter < 50; ++iter) {
    std::vector<std::pair<std::uint64_t, std::size_t>> fields;
    BitWriter w;
    std::size_t count = 1 + rng.next_below(20);
    for (std::size_t i = 0; i < count; ++i) {
      std::size_t width = 1 + rng.next_below(64);
      std::uint64_t value = rng.next_u64();
      if (width < 64) value &= (1ULL << width) - 1;
      fields.emplace_back(value, width);
      w.write_uint(value, width);
    }
    const BitString bits = w.take();
    BitReader r(bits);
    for (const auto& [value, width] : fields) {
      EXPECT_EQ(r.read_uint(width), value);
    }
    EXPECT_TRUE(r.exhausted());
  }
}

}  // namespace
}  // namespace mpch::util
