#include "hash/sha256.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "hash/sha256_compress.hpp"

#ifdef MPCH_SHA256_HAVE_SHANI
#include <immintrin.h>
#endif

namespace mpch::hash {

namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }
inline std::uint32_t big_sigma0(std::uint32_t x) { return rotr(x, 2) ^ rotr(x, 13) ^ rotr(x, 22); }
inline std::uint32_t big_sigma1(std::uint32_t x) { return rotr(x, 6) ^ rotr(x, 11) ^ rotr(x, 25); }
inline std::uint32_t small_sigma0(std::uint32_t x) { return rotr(x, 7) ^ rotr(x, 18) ^ (x >> 3); }
inline std::uint32_t small_sigma1(std::uint32_t x) { return rotr(x, 17) ^ rotr(x, 19) ^ (x >> 10); }
inline std::uint32_t ch(std::uint32_t x, std::uint32_t y, std::uint32_t z) {
  return (x & y) ^ (~x & z);
}
inline std::uint32_t maj(std::uint32_t x, std::uint32_t y, std::uint32_t z) {
  return (x & y) ^ (x & z) ^ (y & z);
}

}  // namespace

namespace detail {

void compress_scalar(std::uint32_t* state, const std::uint8_t* blocks, std::size_t nblocks) {
  for (; nblocks > 0; --nblocks, blocks += 64) {
    std::array<std::uint32_t, 64> w{};
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(blocks[i * 4]) << 24) |
             (static_cast<std::uint32_t>(blocks[i * 4 + 1]) << 16) |
             (static_cast<std::uint32_t>(blocks[i * 4 + 2]) << 8) |
             static_cast<std::uint32_t>(blocks[i * 4 + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      w[i] = small_sigma1(w[i - 2]) + w[i - 7] + small_sigma0(w[i - 15]) + w[i - 16];
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      std::uint32_t t1 = h + big_sigma1(e) + ch(e, f, g) + kRoundConstants[i] + w[i];
      std::uint32_t t2 = big_sigma0(a) + maj(a, b, c);
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#ifdef MPCH_SHA256_HAVE_SHANI
// The SHA extensions keep the working words as two vectors, ABEF and CDGH.
// sha256rnds2 runs two rounds from the low two words of its third operand
// (message word + round constant); each 4-round group calls it twice. The
// message schedule lives in four vectors msg[g % 4], each holding the four
// words W[4g..4g+3]; for g >= 4, sha256msg1/msg2 derive a group from the
// four before it, with the W[t-7] term taken from an alignr of the two
// most recent groups.
__attribute__((target("sha,sse4.1,ssse3"))) void compress_shani(std::uint32_t* state,
                                                                 const std::uint8_t* blocks,
                                                                 std::size_t nblocks) {
  // Big-endian message words: byte-swap each 32-bit lane.
  const __m128i byte_swap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  // H0..H7 are the words A..H; vector names list lanes high to low.
  const __m128i cdab =
      _mm_shuffle_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xB1);
  const __m128i efgh =
      _mm_shuffle_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; nblocks > 0; --nblocks, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i msg[4];
    // Fully unrolled, msg[] lives in registers; as a loop it spills.
#pragma GCC unroll 16
    for (std::size_t g = 0; g < 16; ++g) {
      __m128i& w = msg[g & 3];
      if (g < 4) {
        w = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * g)), byte_swap);
      } else {
        const __m128i prev = msg[(g + 3) & 3];
        w = _mm_sha256msg1_epu32(w, msg[(g + 1) & 3]);
        w = _mm_add_epi32(w, _mm_alignr_epi8(prev, msg[(g + 2) & 3], 4));
        w = _mm_sha256msg2_epu32(w, prev);
      }
      const __m128i wk = _mm_add_epi32(
          w, _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kRoundConstants[4 * g])));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), _mm_blend_epi16(feba, dchg, 0xF0));  // DCBA
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), _mm_alignr_epi8(dchg, feba, 8));  // HGFE
}
#endif

bool shani_supported() {
#ifdef MPCH_SHA256_HAVE_SHANI
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1") &&
           __builtin_cpu_supports("ssse3");
  }();
  return supported;
#else
  return false;
#endif
}

void compress(std::uint32_t* state, const std::uint8_t* blocks, std::size_t nblocks) {
#ifdef MPCH_SHA256_HAVE_SHANI
  static const CompressFn selected = shani_supported() ? compress_shani : compress_scalar;
  selected(state, blocks, nblocks);
#else
  compress_scalar(state, blocks, nblocks);
#endif
}

}  // namespace detail

void Sha256::reset() {
  state_ = kInitState;
  buffer_len_ = 0;
  total_bytes_ = 0;
  finalized_ = false;
}

void Sha256::update(const std::uint8_t* data, std::size_t len) {
  if (finalized_) throw std::logic_error("Sha256::update after digest(); call reset() first");
  if (len == 0) return;
  total_bytes_ += len;
  if (buffer_len_ > 0) {
    const std::size_t take = std::min<std::size_t>(64 - buffer_len_, len);
    std::memcpy(buffer_.data() + buffer_len_, data, take);
    buffer_len_ += take;
    data += take;
    len -= take;
    if (buffer_len_ < 64) return;
    detail::compress(state_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
  }
  // Whole blocks are hashed straight from the input, without the buffer.
  if (const std::size_t blocks = len / 64; blocks > 0) {
    detail::compress(state_.data(), data, blocks);
    data += blocks * 64;
    len -= blocks * 64;
  }
  if (len > 0) {
    std::memcpy(buffer_.data(), data, len);
    buffer_len_ = len;
  }
}

Sha256::Digest Sha256::digest() {
  if (finalized_) throw std::logic_error("Sha256::digest called twice; call reset() first");
  finalized_ = true;

  std::uint64_t bit_len = total_bytes_ * 8;
  // Padding: 0x80, zeros, then 64-bit big-endian length.
  std::size_t blen = buffer_len_;
  buffer_[blen++] = 0x80;
  if (blen > 56) {
    std::memset(buffer_.data() + blen, 0, 64 - blen);
    detail::compress(state_.data(), buffer_.data(), 1);
    blen = 0;
  }
  std::memset(buffer_.data() + blen, 0, 56 - blen);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<std::uint8_t>(bit_len >> (56 - i * 8));
  }
  detail::compress(state_.data(), buffer_.data(), 1);

  Digest out{};
  for (int i = 0; i < 8; ++i) {
    out[i * 4] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[i * 4 + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[i * 4 + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[i * 4 + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

Sha256::Digest Sha256::hash(const std::uint8_t* data, std::size_t len) {
  Sha256 h;
  h.update(data, len);
  return h.digest();
}

std::string Sha256::to_hex(const Digest& d) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(kDigestBytes * 2);
  for (std::uint8_t b : d) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xF]);
  }
  return out;
}

}  // namespace mpch::hash
