#include "transport/shared_memory.hpp"

#include <cstring>

namespace mpch::transport {

void ByteRing::grow(std::size_t need) {
  std::size_t capacity = data_.size();
  while (capacity < need) capacity *= 2;
  // Linearise while reallocating so head_ restarts at zero.
  std::vector<std::uint8_t> bigger(capacity);
  const std::size_t tail_run = std::min(size_, data_.size() - head_);
  std::memcpy(bigger.data(), data_.data() + head_, tail_run);
  std::memcpy(bigger.data() + tail_run, data_.data(), size_ - tail_run);
  data_ = std::move(bigger);
  head_ = 0;
}

void ByteRing::write(const std::uint8_t* bytes, std::size_t size) {
  if (size_ + size > data_.size()) grow(size_ + size);
  std::size_t pos = (head_ + size_) % data_.size();
  const std::size_t run = std::min(size, data_.size() - pos);
  std::memcpy(data_.data() + pos, bytes, run);
  std::memcpy(data_.data(), bytes + run, size - run);
  size_ += size;
}

std::vector<std::uint8_t> ByteRing::drain() {
  std::vector<std::uint8_t> out(size_);
  // An empty ring may never have allocated: memcpy must not see its null data().
  if (size_ != 0) {
    const std::size_t run = std::min(size_, data_.size() - head_);
    std::memcpy(out.data(), data_.data() + head_, run);
    std::memcpy(out.data() + run, data_.data(), size_ - run);
  }
  head_ = 0;
  size_ = 0;
  return out;
}

SharedMemoryTransport::SharedMemoryTransport(const TransportOptions& options)
    : max_payload_bits_(options.max_payload_bits ? options.max_payload_bits
                                                 : kDefaultMaxPayloadBits) {}

void SharedMemoryTransport::start(std::uint64_t machines) {
  machines_ = machines;
  rings_.clear();
  rings_.resize(static_cast<std::size_t>(machines));
  // Plain bytes, not vector<bool>: distinct elements are written by distinct
  // worker threads during phase A.
  staged_.assign(static_cast<std::size_t>(machines), 0);
  buckets_.assign(static_cast<std::size_t>(machines), {});
}

bool SharedMemoryTransport::stage(std::uint64_t round, std::uint64_t machine,
                                  const std::vector<mpc::Message>& outbox) {
  ByteRing& ring = rings_[static_cast<std::size_t>(machine)];
  for (std::size_t seq = 0; seq < outbox.size(); ++seq) {
    WireFrame frame;
    frame.type = FrameType::kData;
    frame.round = round;
    frame.from = machine;
    frame.seq = seq;
    frame.to = outbox[seq].to;
    frame.payload = outbox[seq].payload;
    const std::vector<std::uint8_t> bytes = encode_frame(frame);
    ring.write(bytes.data(), bytes.size());
  }
  staged_[static_cast<std::size_t>(machine)] = 1;
  return true;
}

std::vector<mpc::Message> SharedMemoryTransport::collect_staged(std::uint64_t round,
                                                                std::uint64_t machine) {
  if (!staged_[static_cast<std::size_t>(machine)]) {
    throw TransportError("shared-memory: collect_staged for machine " + std::to_string(machine) +
                         " in round " + std::to_string(round) + " but nothing was staged");
  }
  staged_[static_cast<std::size_t>(machine)] = 0;
  const std::vector<std::uint8_t> bytes = rings_[static_cast<std::size_t>(machine)].drain();
  std::vector<WireFrame> frames = decode_frames(bytes, max_payload_bits_);
  std::vector<mpc::Message> outbox;
  outbox.reserve(frames.size());
  for (WireFrame& frame : frames) {
    if (frame.type != FrameType::kData || frame.round != round || frame.from != machine ||
        frame.seq != outbox.size()) {
      throw TransportError("shared-memory: ring for machine " + std::to_string(machine) +
                           " held an out-of-protocol frame (type " +
                           std::to_string(static_cast<unsigned>(frame.type)) + ", round " +
                           std::to_string(frame.round) + ", from " + std::to_string(frame.from) +
                           ", seq " + std::to_string(frame.seq) + ") in round " +
                           std::to_string(round));
    }
    outbox.push_back({frame.from, frame.to, std::move(frame.payload)});
  }
  return outbox;
}

void SharedMemoryTransport::send(std::uint64_t /*round*/, std::uint64_t /*from*/,
                                 std::vector<mpc::Message> outbox) {
  for (auto& msg : outbox) {
    buckets_[static_cast<std::size_t>(msg.to)].push_back(std::move(msg));
  }
}

void SharedMemoryTransport::flush(std::uint64_t /*round*/) {}

std::vector<mpc::Message> SharedMemoryTransport::receive(std::uint64_t /*round*/,
                                                         std::uint64_t to) {
  std::vector<mpc::Message> inbox = std::move(buckets_[static_cast<std::size_t>(to)]);
  buckets_[static_cast<std::size_t>(to)].clear();
  return inbox;
}

bool SharedMemoryTransport::idle() const {
  for (const auto& ring : rings_) {
    if (ring.size() != 0) return false;
  }
  for (const auto& flag : staged_) {
    if (flag) return false;
  }
  for (const auto& bucket : buckets_) {
    if (!bucket.empty()) return false;
  }
  return true;
}

}  // namespace mpch::transport
