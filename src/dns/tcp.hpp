// DNS over TCP (RFC 1035 §4.2.2) and UDP-truncation fallback.
//
// UDP answers that exceed the client's advertised payload size come back
// truncated (TC=1); real stubs then retry the query over TCP, where
// messages are 2-byte-length-prefixed. This module provides the TCP client,
// a transport that performs the fallback transparently, and the truncation
// rules dns::DaemonServer applies to its UDP answers.
#pragma once

#include <atomic>
#include <cstdint>
#include <unordered_map>

#include "dns/server.hpp"

namespace drongo::dns {

/// DnsTransport over loopback TCP: connects per exchange, writes the
/// length-prefixed query, reads the length-prefixed response.
class TcpDnsClient : public DnsTransport {
 public:
  explicit TcpDnsClient(int timeout_ms = 2000);

  void register_endpoint(net::Ipv4Addr server, std::uint16_t port);

  std::vector<std::uint8_t> exchange(net::Ipv4Addr source, net::Ipv4Addr destination,
                                     std::span<const std::uint8_t> query) override;

 private:
  int timeout_ms_;
  std::unordered_map<net::Ipv4Addr, std::uint16_t> endpoints_;
};

/// UDP-first transport with automatic TCP retry on truncation: the stub
/// behaviour RFC 1035 prescribes. Wraps any two transports, so it also
/// composes with the in-memory fabric in tests.
class TruncationFallbackTransport : public DnsTransport {
 public:
  /// Both transports are borrowed and must outlive this object.
  TruncationFallbackTransport(DnsTransport* udp, DnsTransport* tcp);

  std::vector<std::uint8_t> exchange(net::Ipv4Addr source, net::Ipv4Addr destination,
                                     std::span<const std::uint8_t> query) override;

  /// How many exchanges fell back to TCP.
  [[nodiscard]] std::uint64_t fallbacks() const {
    return fallbacks_.load(std::memory_order_relaxed);
  }

 private:
  DnsTransport* udp_;
  DnsTransport* tcp_;
  /// Relaxed atomic: the transport may be shared across campaign workers.
  std::atomic<std::uint64_t> fallbacks_{0};
};

/// Truncates `response` to fit `max_bytes` when necessary: drops answer/
/// authority/additional records and sets TC, as a UDP server must. Returns
/// true when truncation occurred. EDNS (with the ECS echo) is preserved if
/// it fits.
bool truncate_to_fit(Message& response, std::size_t max_bytes);

/// The maximum UDP payload a query permits: its EDNS advertisement, or the
/// classic 512 bytes without EDNS.
std::size_t max_udp_payload(const Message& query);

}  // namespace drongo::dns
