#include "dns/udp.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "net/error.hpp"

namespace drongo::dns {

namespace {
constexpr std::size_t kMaxDatagram = 65535;

sockaddr_in loopback(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}
}  // namespace

UdpSocket::UdpSocket(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0) {
    throw net::Error(std::string("socket(): ") + std::strerror(errno));
  }
  sockaddr_in addr = loopback(port);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    throw net::Error(std::string("bind(): ") + std::strerror(saved));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    throw net::Error(std::string("getsockname(): ") + std::strerror(saved));
  }
  port_ = ntohs(addr.sin_port);
}

UdpSocket::~UdpSocket() {
  if (fd_ >= 0) ::close(fd_);
}

UdpSocket::UdpSocket(UdpSocket&& other) noexcept : fd_(other.fd_), port_(other.port_) {
  other.fd_ = -1;
  other.port_ = 0;
}

UdpSocket& UdpSocket::operator=(UdpSocket&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    port_ = other.port_;
    other.fd_ = -1;
    other.port_ = 0;
  }
  return *this;
}

void UdpSocket::set_receive_timeout(int timeout_ms) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0) {
    throw net::Error(std::string("setsockopt(SO_RCVTIMEO): ") + std::strerror(errno));
  }
}

void UdpSocket::send_to(std::uint16_t dest_port, std::span<const std::uint8_t> data) {
  sockaddr_in addr = loopback(dest_port);
  const ssize_t sent = ::sendto(fd_, data.data(), data.size(), 0,
                                reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (sent < 0 || static_cast<std::size_t>(sent) != data.size()) {
    throw net::Error(std::string("sendto(): ") + std::strerror(errno));
  }
}

std::vector<std::uint8_t> UdpSocket::receive_from(std::uint16_t& from_port) {
  std::vector<std::uint8_t> buffer(kMaxDatagram);
  sockaddr_in from{};
  socklen_t from_len = sizeof(from);
  const ssize_t n = ::recvfrom(fd_, buffer.data(), buffer.size(), 0,
                               reinterpret_cast<sockaddr*>(&from), &from_len);
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
      return {};  // timeout
    }
    throw net::Error(std::string("recvfrom(): ") + std::strerror(errno));
  }
  from_port = ntohs(from.sin_port);
  buffer.resize(static_cast<std::size_t>(n));
  return buffer;
}

UdpDnsClient::UdpDnsClient(int timeout_ms, int attempts)
    : socket_(0), attempts_(attempts < 1 ? 1 : attempts) {
  socket_.set_receive_timeout(timeout_ms);
}

void UdpDnsClient::register_endpoint(net::Ipv4Addr server, std::uint16_t port) {
  endpoints_[server] = port;
}

std::vector<std::uint8_t> UdpDnsClient::exchange(net::Ipv4Addr /*source*/,
                                                 net::Ipv4Addr destination,
                                                 std::span<const std::uint8_t> query) {
  auto it = endpoints_.find(destination);
  if (it == endpoints_.end()) {
    throw net::InvalidArgument("no UDP endpoint registered for " +
                               destination.to_string());
  }
  for (int attempt = 0; attempt < attempts_; ++attempt) {
    socket_.send_to(it->second, query);
    std::uint16_t from_port = 0;
    std::vector<std::uint8_t> reply = socket_.receive_from(from_port);
    if (!reply.empty()) return reply;
  }
  throw net::TimeoutError("DNS query to " + destination.to_string() +
                          " timed out after " + std::to_string(attempts_) + " attempts");
}

}  // namespace drongo::dns
