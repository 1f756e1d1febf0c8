#include "transport/transport.hpp"

#include "transport/inprocess.hpp"
#include "transport/socket.hpp"

namespace mpch::transport {

TransportKind parse_transport_kind(const std::string& name) {
  if (name == "in-process" || name == "inprocess") return TransportKind::kInProcess;
  if (name == "socket") return TransportKind::kSocket;
  throw std::invalid_argument("unknown transport '" + name + "' (expected in-process or socket)");
}

std::string to_string(TransportKind kind) {
  switch (kind) {
    case TransportKind::kInProcess:
      return "in-process";
    case TransportKind::kSocket:
      return "socket";
  }
  throw std::invalid_argument("unknown TransportKind");
}

std::unique_ptr<Transport> make_transport(TransportKind kind, const TransportOptions& options) {
  switch (kind) {
    case TransportKind::kInProcess:
      return std::make_unique<InProcessTransport>();
    case TransportKind::kSocket:
      return std::make_unique<SocketTransport>(options);
  }
  throw std::invalid_argument("unknown TransportKind");
}

}  // namespace mpch::transport
