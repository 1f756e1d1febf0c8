#include "hash/blake2s.hpp"

#include <cstring>
#include <stdexcept>

namespace mpch::hash {

namespace {

constexpr std::array<std::uint32_t, 8> kIv = {0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A,
                                              0x510E527F, 0x9B05688C, 0x1F83D9AB, 0x5BE0CD19};

constexpr std::uint8_t kSigma[10][16] = {
    {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
    {14, 10, 4, 8, 9, 15, 13, 6, 1, 12, 0, 2, 11, 7, 5, 3},
    {11, 8, 12, 0, 5, 2, 15, 13, 10, 14, 3, 6, 7, 1, 9, 4},
    {7, 9, 3, 1, 13, 12, 11, 14, 2, 6, 5, 10, 4, 0, 15, 8},
    {9, 0, 5, 7, 2, 4, 10, 15, 14, 1, 11, 12, 6, 8, 3, 13},
    {2, 12, 6, 10, 0, 11, 8, 3, 4, 13, 7, 5, 15, 14, 1, 9},
    {12, 5, 1, 15, 14, 13, 4, 10, 0, 7, 6, 3, 9, 2, 8, 11},
    {13, 11, 7, 14, 12, 1, 3, 9, 5, 0, 15, 4, 8, 6, 2, 10},
    {6, 15, 14, 9, 11, 3, 0, 8, 12, 2, 13, 7, 1, 4, 10, 5},
    {10, 2, 8, 4, 7, 6, 1, 5, 15, 11, 9, 14, 3, 12, 13, 0}};

inline std::uint32_t rotr32(std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

inline void g(std::array<std::uint32_t, 16>& v, int a, int b, int c, int d, std::uint32_t x,
              std::uint32_t y) {
  v[a] = v[a] + v[b] + x;
  v[d] = rotr32(v[d] ^ v[a], 16);
  v[c] = v[c] + v[d];
  v[b] = rotr32(v[b] ^ v[c], 12);
  v[a] = v[a] + v[b] + y;
  v[d] = rotr32(v[d] ^ v[a], 8);
  v[c] = v[c] + v[d];
  v[b] = rotr32(v[b] ^ v[c], 7);
}

}  // namespace

void Blake2s::reset() {
  h_ = kIv;
  // Parameter block: digest length 32, no key, fanout/depth 1.
  h_[0] ^= 0x01010000 ^ kDigestBytes;
  buffer_len_ = 0;
  total_ = 0;
  finalized_ = false;
}

void Blake2s::compress(bool last) {
  std::array<std::uint32_t, 16> m{};
  for (int i = 0; i < 16; ++i) {
    m[i] = static_cast<std::uint32_t>(buffer_[i * 4]) |
           (static_cast<std::uint32_t>(buffer_[i * 4 + 1]) << 8) |
           (static_cast<std::uint32_t>(buffer_[i * 4 + 2]) << 16) |
           (static_cast<std::uint32_t>(buffer_[i * 4 + 3]) << 24);
  }
  std::array<std::uint32_t, 16> v{};
  for (int i = 0; i < 8; ++i) v[i] = h_[i];
  for (int i = 0; i < 8; ++i) v[8 + i] = kIv[i];
  v[12] ^= static_cast<std::uint32_t>(total_);
  v[13] ^= static_cast<std::uint32_t>(total_ >> 32);
  if (last) v[14] = ~v[14];

  for (int round = 0; round < 10; ++round) {
    const std::uint8_t* s = kSigma[round];
    g(v, 0, 4, 8, 12, m[s[0]], m[s[1]]);
    g(v, 1, 5, 9, 13, m[s[2]], m[s[3]]);
    g(v, 2, 6, 10, 14, m[s[4]], m[s[5]]);
    g(v, 3, 7, 11, 15, m[s[6]], m[s[7]]);
    g(v, 0, 5, 10, 15, m[s[8]], m[s[9]]);
    g(v, 1, 6, 11, 12, m[s[10]], m[s[11]]);
    g(v, 2, 7, 8, 13, m[s[12]], m[s[13]]);
    g(v, 3, 4, 9, 14, m[s[14]], m[s[15]]);
  }
  for (int i = 0; i < 8; ++i) h_[i] ^= v[i] ^ v[8 + i];
}

void Blake2s::update(const std::uint8_t* data, std::size_t len) {
  if (finalized_) throw std::logic_error("Blake2s::update after digest(); call reset() first");
  while (len > 0) {
    if (buffer_len_ == 64) {
      // Buffer full and more input coming: this is a non-final block.
      total_ += 64;
      compress(false);
      buffer_len_ = 0;
    }
    std::size_t take = std::min<std::size_t>(64 - buffer_len_, len);
    std::memcpy(buffer_.data() + buffer_len_, data, take);
    buffer_len_ += take;
    data += take;
    len -= take;
  }
}

Blake2s::Digest Blake2s::digest() {
  if (finalized_) throw std::logic_error("Blake2s::digest called twice; call reset() first");
  finalized_ = true;
  total_ += buffer_len_;
  std::memset(buffer_.data() + buffer_len_, 0, 64 - buffer_len_);
  compress(true);

  Digest out{};
  for (int i = 0; i < 8; ++i) {
    out[i * 4] = static_cast<std::uint8_t>(h_[i]);
    out[i * 4 + 1] = static_cast<std::uint8_t>(h_[i] >> 8);
    out[i * 4 + 2] = static_cast<std::uint8_t>(h_[i] >> 16);
    out[i * 4 + 3] = static_cast<std::uint8_t>(h_[i] >> 24);
  }
  return out;
}

Blake2s::Digest Blake2s::hash(const std::uint8_t* data, std::size_t len) {
  Blake2s b;
  b.update(data, len);
  return b.digest();
}

std::string Blake2s::to_hex(const Digest& d) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(kDigestBytes * 2);
  for (std::uint8_t b : d) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xF]);
  }
  return out;
}

util::BitString blake2s_expand(const std::vector<std::uint8_t>& prefix, std::size_t out_bits) {
  util::BitString out;
  std::uint32_t counter = 0;
  while (out.size() < out_bits) {
    Blake2s b;
    b.update(prefix);
    std::uint8_t ctr[4] = {static_cast<std::uint8_t>(counter >> 24),
                           static_cast<std::uint8_t>(counter >> 16),
                           static_cast<std::uint8_t>(counter >> 8),
                           static_cast<std::uint8_t>(counter)};
    b.update(ctr, 4);
    Blake2s::Digest d = b.digest();
    out += util::BitString::from_bytes(d);
    ++counter;
  }
  out.truncate(out_bits);
  return out;
}

Blake2sOracle::Blake2sOracle(std::size_t in_bits, std::size_t out_bits)
    : in_bits_(in_bits), out_bits_(out_bits) {
  if (in_bits == 0 || out_bits == 0) {
    throw std::invalid_argument("Blake2sOracle: zero-width domain or range");
  }
}

util::BitString Blake2sOracle::query(const util::BitString& input) {
  check_input(input);
  ++total_queries_;
  std::vector<std::uint8_t> prefix;
  prefix.reserve(3 + input.bytes().size() + 8);
  prefix.push_back('B');
  prefix.push_back('2');
  prefix.push_back('S');
  const auto& bytes = input.bytes();
  prefix.insert(prefix.end(), bytes.begin(), bytes.end());
  std::uint64_t len = input.size();
  for (int i = 0; i < 8; ++i) prefix.push_back(static_cast<std::uint8_t>(len >> (i * 8)));
  return blake2s_expand(prefix, out_bits_);
}

}  // namespace mpch::hash
