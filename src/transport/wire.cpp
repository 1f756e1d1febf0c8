#include "transport/wire.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace mpch::transport {

namespace {

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

bool known_type(std::uint8_t t) {
  return t >= static_cast<std::uint8_t>(FrameType::kData) &&
         t <= static_cast<std::uint8_t>(FrameType::kFlushDone);
}

std::size_t payload_bytes_for(std::uint64_t payload_bits) {
  return static_cast<std::size_t>((payload_bits + 7) / 8);
}

}  // namespace

std::vector<std::uint8_t> encode_frame(const WireFrame& frame) {
  std::vector<std::uint8_t> out;
  const std::size_t payload_len = payload_bytes_for(frame.payload.size());
  out.reserve(kFrameHeaderBytes + payload_len);
  put_u32(out, kWireMagic);
  out.push_back(static_cast<std::uint8_t>(frame.type));
  put_u64(out, frame.round);
  put_u64(out, frame.from);
  put_u64(out, frame.seq);
  put_u64(out, frame.to);
  put_u64(out, frame.payload.size());
  const auto& bytes = frame.payload.bytes();
  out.insert(out.end(), bytes.begin(), bytes.end());
  return out;
}

void FrameDecoder::feed(const std::uint8_t* data, std::size_t size) {
  buffer_.insert(buffer_.end(), data, data + size);
}

std::optional<WireFrame> FrameDecoder::next() {
  // A wrong magic is provable from the first four bytes alone; reject it
  // without waiting for a full header — the stream can never resynchronise.
  if (buffer_.size() >= 4 && get_u32(buffer_.data()) != kWireMagic) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%08X", get_u32(buffer_.data()));
    throw WireError("wire frame: bad magic 0x" + std::string(buf) + " at byte " +
                    std::to_string(bytes_consumed_) + " (stream is not MPCF-framed or lost sync)");
  }
  if (buffer_.size() < kFrameHeaderBytes) return std::nullopt;

  const std::uint8_t* p = buffer_.data();
  const std::uint8_t type_byte = p[4];
  if (!known_type(type_byte)) {
    throw WireError("wire frame: unknown frame type " + std::to_string(type_byte) + " at byte " +
                    std::to_string(bytes_consumed_ + 4));
  }
  WireFrame frame;
  frame.type = static_cast<FrameType>(type_byte);
  frame.round = get_u64(p + 5);
  frame.from = get_u64(p + 13);
  frame.seq = get_u64(p + 21);
  frame.to = get_u64(p + 29);
  const std::uint64_t payload_bits = get_u64(p + 37);

  // The length-prefix gate fires before any buffering or allocation sized
  // from the prefix — a hostile 2^60 here must cost nothing.
  if (payload_bits > max_payload_bits_) {
    throw WireError("wire frame: oversized length prefix (" + std::to_string(payload_bits) +
                    " payload bits > cap " + std::to_string(max_payload_bits_) + ") at byte " +
                    std::to_string(bytes_consumed_ + 37));
  }
  const std::size_t total = kFrameHeaderBytes + payload_bytes_for(payload_bits);
  if (buffer_.size() < total) return std::nullopt;

  frame.payload = util::BitString::from_bytes({p + kFrameHeaderBytes, p + total});
  frame.payload.truncate(static_cast<std::size_t>(payload_bits));

  buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<std::ptrdiff_t>(total));
  bytes_consumed_ += total;
  return frame;
}

std::vector<WireFrame> decode_frames(const std::vector<std::uint8_t>& bytes,
                                     std::uint64_t max_payload_bits) {
  FrameDecoder decoder(max_payload_bits);
  decoder.feed(bytes.data(), bytes.size());
  std::vector<WireFrame> frames;
  while (auto frame = decoder.next()) frames.push_back(std::move(*frame));
  if (decoder.pending_bytes() != 0) {
    throw WireError("wire frame: truncated frame — " + std::to_string(decoder.pending_bytes()) +
                    " byte(s) after byte " + std::to_string(decoder.bytes_consumed()) +
                    " do not form a complete frame");
  }
  return frames;
}

void InboxAssembler::add(std::uint64_t from, std::uint64_t seq, util::BitString payload) {
  auto it = last_seq_.find(from);
  if (it != last_seq_.end()) {
    if (seq == it->second && options_.reject_duplicates) {
      throw WireError("wire frame: duplicated frame — machine " + std::to_string(machine_) +
                      " received seq " + std::to_string(seq) + " from machine " +
                      std::to_string(from) + " twice in round " + std::to_string(round_));
    }
    if (seq < it->second && options_.reject_reordered) {
      throw WireError("wire frame: reordered frame — machine " + std::to_string(machine_) +
                      " received seq " + std::to_string(seq) + " from machine " +
                      std::to_string(from) + " after seq " + std::to_string(it->second) +
                      " in round " + std::to_string(round_));
    }
    it->second = seq;
  } else {
    last_seq_.emplace(from, seq);
  }
  entries_.push_back({from, seq, std::move(payload)});
}

std::vector<mpc::Message> InboxAssembler::take() {
  std::sort(entries_.begin(), entries_.end(), [](const Entry& a, const Entry& b) {
    return a.from != b.from ? a.from < b.from : a.seq < b.seq;
  });
  std::vector<mpc::Message> inbox;
  inbox.reserve(entries_.size());
  for (auto& e : entries_) {
    inbox.push_back({e.from, machine_, std::move(e.payload)});
  }
  entries_.clear();
  last_seq_.clear();
  return inbox;
}

}  // namespace mpch::transport
