// UDP transport: query DNS over real loopback sockets. Serving is
// dns::DaemonServer's job (daemon_server.hpp).
#pragma once

#include <cstdint>
#include <unordered_map>

#include "dns/server.hpp"

namespace drongo::dns {

/// RAII UDP socket bound to 127.0.0.1. Closes on destruction; moves only.
class UdpSocket {
 public:
  /// Binds to the given port on loopback; 0 picks an ephemeral port.
  /// Throws net::Error on socket/bind failure.
  explicit UdpSocket(std::uint16_t port = 0);
  ~UdpSocket();

  UdpSocket(UdpSocket&& other) noexcept;
  UdpSocket& operator=(UdpSocket&& other) noexcept;
  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

  /// The bound port (useful after an ephemeral bind).
  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] int fd() const { return fd_; }

  /// Sets the receive timeout in milliseconds (0 = blocking).
  void set_receive_timeout(int timeout_ms);

  /// Sends a datagram to 127.0.0.1:dest_port.
  void send_to(std::uint16_t dest_port, std::span<const std::uint8_t> data);

  /// Receives one datagram; returns the payload and fills `from_port`.
  /// Returns an empty vector on timeout.
  std::vector<std::uint8_t> receive_from(std::uint16_t& from_port);

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

/// DnsTransport over loopback UDP. Simulated server addresses are mapped to
/// real localhost ports via register_endpoint, so code written against the
/// in-memory network runs unmodified over sockets.
class UdpDnsClient : public DnsTransport {
 public:
  /// `attempts` retransmissions-plus-one on timeout: UDP is lossy, real
  /// stubs retry.
  explicit UdpDnsClient(int timeout_ms = 2000, int attempts = 3);

  /// Maps a simulated server address to a localhost UDP port.
  void register_endpoint(net::Ipv4Addr server, std::uint16_t port);

  std::vector<std::uint8_t> exchange(net::Ipv4Addr source, net::Ipv4Addr destination,
                                     std::span<const std::uint8_t> query) override;

 private:
  UdpSocket socket_;
  std::unordered_map<net::Ipv4Addr, std::uint16_t> endpoints_;
  int attempts_;
};

}  // namespace drongo::dns
