#include "hash/sha256.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "hash/sha256_compress.hpp"
#include "hash_reference.hpp"
#include "util/rng.hpp"

namespace mpch::hash {
namespace {

// FIPS 180-4 / NIST CAVP reference vectors.
TEST(Sha256, EmptyString) {
  EXPECT_EQ(Sha256::to_hex(Sha256::hash(std::string(""))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(Sha256::to_hex(Sha256::hash(std::string("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(Sha256::to_hex(Sha256::hash(
                std::string("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(Sha256::to_hex(h.digest()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, ExactBlockBoundary) {
  // 64-byte message exercises the padding-overflow path.
  std::string msg(64, 'x');
  auto once = Sha256::hash(msg);
  Sha256 h;
  h.update(msg.substr(0, 13));
  h.update(msg.substr(13));
  EXPECT_EQ(h.digest(), once);
}

TEST(Sha256, IncrementalMatchesOneShot) {
  std::string msg = "the quick brown fox jumps over the lazy dog";
  for (std::size_t split = 0; split <= msg.size(); split += 7) {
    Sha256 h;
    h.update(msg.substr(0, split));
    h.update(msg.substr(split));
    EXPECT_EQ(h.digest(), Sha256::hash(msg)) << "split=" << split;
  }
}

TEST(Sha256, ResetAllowsReuse) {
  Sha256 h;
  h.update(std::string("abc"));
  auto d1 = h.digest();
  h.reset();
  h.update(std::string("abc"));
  EXPECT_EQ(h.digest(), d1);
}

TEST(Sha256, DigestTwiceThrows) {
  Sha256 h;
  h.update(std::string("x"));
  h.digest();
  EXPECT_THROW(h.digest(), std::logic_error);
  EXPECT_THROW(h.update(std::string("y")), std::logic_error);
}

TEST(Sha256, SensitivityToEveryBit) {
  auto base = Sha256::hash(std::string("aaaa"));
  auto flipped = Sha256::hash(std::string("aaab"));
  EXPECT_NE(base, flipped);
}

TEST(Sha256, LengthExtensionDistinctFromConcat) {
  // hash("ab") != hash("a") in any byte — sanity on state handling.
  auto a = Sha256::hash(std::string("a"));
  auto ab = Sha256::hash(std::string("ab"));
  EXPECT_NE(a, ab);
}

std::vector<std::uint8_t> random_bytes(util::SplitMix64& rng, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

std::vector<std::uint8_t> bytes_of(const std::string& s) { return {s.begin(), s.end()}; }

TEST(Sha256, FipsVectorsOnEveryCompressionPath) {
  const std::vector<std::pair<std::string, std::string>> vectors = {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {std::string(1000000, 'a'),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"}};
  for (const auto& path : reference::compress_paths()) {
    for (const auto& [msg, hex] : vectors) {
      EXPECT_EQ(Sha256::to_hex(reference::sha256(path.fn, bytes_of(msg))), hex)
          << path.name << ", message of " << msg.size() << " bytes";
    }
  }
}

TEST(Sha256Compress, ShaNiMatchesScalarOnRandomStatesAndBlocks) {
#ifdef MPCH_SHA256_HAVE_SHANI
  if (!detail::shani_supported()) {
    GTEST_SKIP() << "this CPU has no SHA-NI: only the scalar compression path can run here";
  }
  util::SplitMix64 rng(0x5a256);
  for (int trial = 0; trial < 2000; ++trial) {
    std::array<std::uint32_t, 8> scalar{};
    for (auto& w : scalar) w = static_cast<std::uint32_t>(rng.next());
    std::array<std::uint32_t, 8> shani = scalar;
    const std::size_t nblocks = 1 + trial % 4;
    const std::vector<std::uint8_t> blocks = random_bytes(rng, 64 * nblocks);
    detail::compress_scalar(scalar.data(), blocks.data(), nblocks);
    detail::compress_shani(shani.data(), blocks.data(), nblocks);
    ASSERT_EQ(shani, scalar) << "trial " << trial << ", " << nblocks << " blocks";
  }
#else
  GTEST_SKIP() << "not an x86 build: there is no SHA-NI compression path";
#endif
}

TEST(Sha256Compress, DispatchedCompressMatchesScalar) {
  // Whatever the dispatch picks, it must give the scalar result.
  util::SplitMix64 rng(17);
  std::array<std::uint32_t, 8> scalar{};
  for (auto& w : scalar) w = static_cast<std::uint32_t>(rng.next());
  std::array<std::uint32_t, 8> dispatched = scalar;
  const std::vector<std::uint8_t> blocks = random_bytes(rng, 64 * 3);
  detail::compress_scalar(scalar.data(), blocks.data(), 3);
  detail::compress(dispatched.data(), blocks.data(), 3);
  EXPECT_EQ(dispatched, scalar);
  const std::size_t paths = reference::compress_paths().size();
  EXPECT_EQ(paths, detail::shani_supported() ? 2u : 1u);
}

TEST(Sha256, DigestsMatchReferenceForLengthsUpTo1000) {
  util::SplitMix64 rng(1000);
  const std::vector<std::uint8_t> data = random_bytes(rng, 1000);
  for (std::size_t len = 0; len <= data.size(); ++len) {
    const Sha256::Digest got = Sha256::hash(data.data(), len);
    for (const auto& path : reference::compress_paths()) {
      ASSERT_EQ(got, reference::sha256(path.fn, data.data(), len))
          << path.name << ", length " << len;
    }
  }
}

TEST(Sha256, EveryTwoPieceSplitUpTo130Bytes) {
  util::SplitMix64 rng(130);
  const std::vector<std::uint8_t> data = random_bytes(rng, 130);
  for (std::size_t len = 0; len <= data.size(); ++len) {
    const Sha256::Digest want = reference::sha256(detail::compress_scalar, data.data(), len);
    for (std::size_t split = 0; split <= len; ++split) {
      Sha256 h;
      h.update(data.data(), split);
      h.update(data.data() + split, len - split);
      ASSERT_EQ(h.digest(), want) << "length " << len << ", split " << split;
    }
  }
}

TEST(Sha256, ByteAtATimeMatchesOneShot) {
  util::SplitMix64 rng(7);
  const std::vector<std::uint8_t> data = random_bytes(rng, 300);
  Sha256 h;
  for (std::uint8_t b : data) h.update(&b, 1);
  EXPECT_EQ(h.digest(), reference::sha256(detail::compress_scalar, data));
}

}  // namespace
}  // namespace mpch::hash
