#include "mpc/auth.hpp"

#include "hash/random_oracle.hpp"

namespace mpch::mpc {

std::uint64_t message_tag_u64(std::uint64_t tape_seed, std::uint64_t round, std::uint64_t from,
                              std::uint64_t to, const util::BitString& payload,
                              std::size_t body_bits) {
  // PRF(seed, round || from || to || body), domain-separated by "MMAC"
  // from every other sha256_expand use (tape "TAPE", oracle "LRO",
  // checkpoint checksum "CKPT", attestation "ATST"). Integer fields are
  // little-endian; the body's packed bytes follow them.
  std::uint8_t head[4 + 8 * 5] = {'M', 'M', 'A', 'C'};
  hash::store_le64(head + 4, tape_seed);
  hash::store_le64(head + 12, round);
  hash::store_le64(head + 20, from);
  hash::store_le64(head + 28, to);
  hash::store_le64(head + 36, body_bits);
  return hash::sha256_expand_u64(head, payload.bytes().data(), body_bits);
}

util::BitString message_tag(std::uint64_t tape_seed, std::uint64_t round, std::uint64_t from,
                            std::uint64_t to, const util::BitString& payload) {
  return util::BitString::from_uint(
      message_tag_u64(tape_seed, round, from, to, payload, payload.size()), kMessageTagBits);
}

std::uint64_t attestation_digest(std::uint64_t tape_seed, std::uint64_t round,
                                 std::uint64_t machine, const std::vector<Message>& inbox) {
  // "ATST" || seed || round || machine, then per message from || to ||
  // payload bits || payload bytes.
  std::uint8_t header[4 + 8 * 3] = {'A', 'T', 'S', 'T'};
  hash::store_le64(header + 4, tape_seed);
  hash::store_le64(header + 12, round);
  hash::store_le64(header + 20, machine);
  hash::Sha256 h;
  h.update(header, sizeof header);
  for (const auto& msg : inbox) {
    std::uint8_t fields[8 * 3];
    hash::store_le64(fields, msg.from);
    hash::store_le64(fields + 8, msg.to);
    hash::store_le64(fields + 16, msg.payload.size());
    h.update(fields, sizeof fields);
    h.update(msg.payload.bytes());
  }
  return hash::sha256_expand_u64(h);
}

std::vector<std::uint64_t> attestation_digests(std::uint64_t tape_seed, std::uint64_t round,
                                               const std::vector<std::vector<Message>>& inboxes) {
  std::vector<std::uint64_t> out;
  out.reserve(inboxes.size());
  for (std::size_t i = 0; i < inboxes.size(); ++i) {
    out.push_back(attestation_digest(tape_seed, round, i, inboxes[i]));
  }
  return out;
}

void verify_inbox_tags(std::uint64_t tape_seed, std::uint64_t round, std::uint64_t machine,
                       const std::vector<Message>& inbox) {
  std::uint64_t offset_bits = 0;
  for (std::size_t idx = 0; idx < inbox.size(); ++idx) {
    const Message& msg = inbox[idx];
    const std::uint64_t byte_offset = offset_bits / 8;
    if (msg.payload.size() < kMessageTagBits) {
      throw TamperViolation(machine, round, idx, byte_offset,
                            "authentication failed: message " + std::to_string(idx) +
                                " delivered to machine " + std::to_string(machine) +
                                " after round " + std::to_string(round) + " (byte offset " +
                                std::to_string(byte_offset) + " in the inbox) is " +
                                std::to_string(msg.payload.size()) +
                                " bits, too short to carry a tag");
    }
    // The tag over the payload's first body_bits, hashed in place: the tag
    // bits sharing the body's last byte are hashed as the zeros they were.
    const std::size_t body_bits = msg.payload.size() - kMessageTagBits;
    if (msg.payload.get_uint(body_bits, kMessageTagBits) !=
        message_tag_u64(tape_seed, round, msg.from, msg.to, msg.payload, body_bits)) {
      throw TamperViolation(machine, round, idx, byte_offset,
                            "authentication failed: message " + std::to_string(idx) +
                                " delivered to machine " + std::to_string(machine) +
                                " after round " + std::to_string(round) +
                                " (claimed sender " + std::to_string(msg.from) +
                                ", byte offset " + std::to_string(byte_offset) +
                                " in the inbox) does not match its MAC tag");
    }
    offset_bits += msg.payload.size();
  }
}

void strip_tags(std::vector<Message>& inbox) {
  for (auto& msg : inbox) msg.payload.truncate(msg.payload.size() - kMessageTagBits);
}

}  // namespace mpch::mpc
