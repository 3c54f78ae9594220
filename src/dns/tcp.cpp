#include "dns/tcp.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "net/error.hpp"

namespace drongo::dns {

namespace {

sockaddr_in loopback(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

/// Reads exactly `n` bytes; returns false on EOF/timeout/error.
bool read_exact(int fd, std::uint8_t* out, std::size_t n, int timeout_ms) {
  std::size_t got = 0;
  while (got < n) {
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready <= 0) return false;
    const ssize_t r = ::recv(fd, out + got, n - got, 0);
    if (r <= 0) return false;
    got += static_cast<std::size_t>(r);
  }
  return true;
}

bool write_all(int fd, const std::uint8_t* data, std::size_t n) {
  std::size_t sent = 0;
  while (sent < n) {
    const ssize_t w = ::send(fd, data + sent, n - sent, MSG_NOSIGNAL);
    if (w <= 0) return false;
    sent += static_cast<std::size_t>(w);
  }
  return true;
}

/// Reads one length-prefixed DNS message; empty on EOF or malformed.
std::vector<std::uint8_t> read_framed(int fd, int timeout_ms) {
  std::uint8_t length_bytes[2];
  if (!read_exact(fd, length_bytes, 2, timeout_ms)) return {};
  const std::size_t length = (std::size_t{length_bytes[0]} << 8) | length_bytes[1];
  if (length == 0) return {};
  std::vector<std::uint8_t> payload(length);
  if (!read_exact(fd, payload.data(), length, timeout_ms)) return {};
  return payload;
}

bool write_framed(int fd, std::span<const std::uint8_t> payload) {
  if (payload.size() > 0xFFFF) return false;
  std::uint8_t length_bytes[2] = {static_cast<std::uint8_t>(payload.size() >> 8),
                                  static_cast<std::uint8_t>(payload.size())};
  return write_all(fd, length_bytes, 2) && write_all(fd, payload.data(), payload.size());
}

}  // namespace

TcpDnsClient::TcpDnsClient(int timeout_ms) : timeout_ms_(timeout_ms) {}

void TcpDnsClient::register_endpoint(net::Ipv4Addr server, std::uint16_t port) {
  endpoints_[server] = port;
}

std::vector<std::uint8_t> TcpDnsClient::exchange(net::Ipv4Addr /*source*/,
                                                 net::Ipv4Addr destination,
                                                 std::span<const std::uint8_t> query) {
  auto it = endpoints_.find(destination);
  if (it == endpoints_.end()) {
    throw net::InvalidArgument("no TCP endpoint registered for " +
                               destination.to_string());
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw net::Error(std::string("socket(): ") + std::strerror(errno));
  sockaddr_in addr = loopback(it->second);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int saved = errno;
    ::close(fd);
    throw net::UnreachableError(std::string("connect(): ") + std::strerror(saved));
  }
  std::vector<std::uint8_t> reply;
  if (write_framed(fd, query)) {
    reply = read_framed(fd, timeout_ms_);
  }
  ::close(fd);
  if (reply.empty()) {
    throw net::TimeoutError("TCP DNS exchange with " + destination.to_string() +
                            " failed");
  }
  return reply;
}

TruncationFallbackTransport::TruncationFallbackTransport(DnsTransport* udp,
                                                         DnsTransport* tcp)
    : udp_(udp), tcp_(tcp) {
  if (udp_ == nullptr || tcp_ == nullptr) {
    throw net::InvalidArgument("null transport in fallback");
  }
}

std::vector<std::uint8_t> TruncationFallbackTransport::exchange(
    net::Ipv4Addr source, net::Ipv4Addr destination, std::span<const std::uint8_t> query) {
  auto reply = udp_->exchange(source, destination, query);
  const Message decoded = Message::decode(reply);
  if (!decoded.header.tc) return reply;
  fallbacks_.fetch_add(1, std::memory_order_relaxed);
  return tcp_->exchange(source, destination, query);
}

std::size_t max_udp_payload(const Message& query) {
  if (query.edns) {
    // Below 512 an advertisement is ignored (RFC 6891 §6.2.3).
    return std::max<std::size_t>(query.edns->udp_payload_size, 512);
  }
  return 512;
}

bool truncate_to_fit(Message& response, std::size_t max_bytes) {
  if (response.encode().size() <= max_bytes) return false;
  // Drop whole sections until it fits; the client will retry over TCP, so
  // partial answers only waste its time.
  response.additional.clear();
  response.authority.clear();
  response.answers.clear();
  response.header.tc = true;
  if (response.encode().size() > max_bytes && response.edns) {
    response.edns.reset();
  }
  return true;
}

}  // namespace drongo::dns
