#include "transport/inprocess.hpp"

namespace mpch::transport {

void InProcessTransport::start(std::uint64_t machines) {
  machines_ = machines;
  buckets_.assign(static_cast<std::size_t>(machines), {});
  spares_.clear();
  spares_.reserve(static_cast<std::size_t>(machines));
}

void InProcessTransport::send(std::uint64_t /*round*/, std::uint64_t /*from*/,
                              std::vector<mpc::Message> outbox) {
  // send() arrives in machine index order, so appending preserves the
  // canonical (sender, send order) merge without any sorting.
  for (auto& msg : outbox) {
    buckets_[static_cast<std::size_t>(msg.to)].push_back(std::move(msg));
  }
  if (spares_.size() < machines_) {
    outbox.clear();
    spares_.push_back(std::move(outbox));
  }
}

void InProcessTransport::flush(std::uint64_t /*round*/) {}

std::vector<mpc::Message> InProcessTransport::receive(std::uint64_t /*round*/, std::uint64_t to) {
  std::vector<mpc::Message>& bucket = buckets_[static_cast<std::size_t>(to)];
  std::vector<mpc::Message> inbox = std::move(bucket);
  if (spares_.empty()) {
    bucket.clear();
  } else {
    bucket = std::move(spares_.back());
    spares_.pop_back();
  }
  return inbox;
}

bool InProcessTransport::idle() const {
  for (const auto& bucket : buckets_) {
    if (!bucket.empty()) return false;
  }
  return true;
}

}  // namespace mpch::transport
