// inprocess.hpp — the zero-copy reference backend.
//
// Messages cross the round barrier exactly as they always have: moved from
// the sender's outbox into per-destination buckets, no serialisation. The
// emptied outbox vectors are kept as spare bucket storage, so a bucket
// handed out by receive() is replaced without allocating. Every
// other backend is conformance-tested against this one, so its merge order
// (sender index ascending, outbox order within a sender — the order send()
// calls arrive in) *defines* the canonical inbox order of the tree.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "transport/transport.hpp"

namespace mpch::transport {

class InProcessTransport final : public Transport {
 public:
  std::string name() const override { return "in-process"; }

  void start(std::uint64_t machines) override;

  void send(std::uint64_t round, std::uint64_t from,
            std::vector<mpc::Message> outbox) override;
  void flush(std::uint64_t round) override;
  std::vector<mpc::Message> receive(std::uint64_t round, std::uint64_t to) override;

  bool idle() const override;

 private:
  std::uint64_t machines_ = 0;
  std::vector<std::vector<mpc::Message>> buckets_;
  std::vector<std::vector<mpc::Message>> spares_;  ///< emptied outboxes, at most machines_
};

}  // namespace mpch::transport
