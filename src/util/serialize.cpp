#include "util/serialize.hpp"

#include <fstream>

namespace mpch::util {

void write_bitstring_field(BitWriter& w, const BitString& bits) {
  w.write_uint(bits.size(), 64);
  w.write_bits(bits);
}

BitString read_bitstring_field(BitReader& r) {
  std::uint64_t len = r.read_uint(64);
  return r.read_bits(static_cast<std::size_t>(len));
}

void write_string_field(BitWriter& w, const std::string& s) {
  w.write_uint(s.size(), 64);
  w.write_bits(BitString::from_bytes(
      {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()}));
}

std::string read_string_field(BitReader& r) {
  std::uint64_t len = r.read_uint(64);
  // Guard the byte->bit multiply: a hostile length near 2^61 would wrap and
  // read_bits would see a tiny (aliased) request instead of rejecting it.
  if (len > r.remaining() / 8) {
    throw std::out_of_range("read_string_field: declared length " + std::to_string(len) +
                            " bytes exceeds the remaining " + std::to_string(r.remaining()) +
                            " bits");
  }
  BitString bits = r.read_bits(static_cast<std::size_t>(len) * 8);
  const auto& bytes = bits.bytes();
  return std::string(bytes.begin(), bytes.end());
}

void write_bits_file(const std::string& path, const BitString& bits) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("write_bits_file: cannot open '" + path + "' for writing");
  std::uint64_t nbits = bits.size();
  std::uint8_t header[8];
  for (int i = 0; i < 8; ++i) header[i] = static_cast<std::uint8_t>(nbits >> (i * 8));
  out.write(reinterpret_cast<const char*>(header), 8);
  const auto& bytes = bits.bytes();
  if (!bytes.empty()) {
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  if (!out) throw std::runtime_error("write_bits_file: write to '" + path + "' failed");
}

BitString read_bits_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("read_bits_file: cannot open '" + path + "'");
  std::uint8_t header[8];
  in.read(reinterpret_cast<char*>(header), 8);
  if (in.gcount() != 8) throw std::runtime_error("read_bits_file: '" + path + "' truncated header");
  std::uint64_t nbits = 0;
  for (int i = 0; i < 8; ++i) nbits |= static_cast<std::uint64_t>(header[i]) << (i * 8);
  std::size_t nbytes = static_cast<std::size_t>((nbits + 7) / 8);
  std::vector<std::uint8_t> bytes(nbytes);
  if (nbytes != 0) {
    in.read(reinterpret_cast<char*>(bytes.data()), static_cast<std::streamsize>(nbytes));
    if (static_cast<std::size_t>(in.gcount()) != nbytes) {
      throw std::runtime_error("read_bits_file: '" + path + "' truncated payload (want " +
                               std::to_string(nbytes) + " bytes)");
    }
  }
  BitString out = BitString::from_bytes(bytes);
  out.truncate(static_cast<std::size_t>(nbits));
  return out;
}

}  // namespace mpch::util
