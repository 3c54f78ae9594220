// In-memory DNS "network": routes encoded queries to registered servers.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>

#include "dns/server.hpp"
#include "net/thread_counters.hpp"

namespace drongo::dns {

/// A process-local DNS fabric. Servers register under an IPv4 address;
/// exchanges serialize the query to wire bytes, decode them on the "server
/// side", and serialize/decode the response symmetrically — so the full
/// RFC 1035/7871 codec is on the hot path of every simulated lookup exactly
/// as it would be over a socket.
///
/// Registration is setup-phase and single-threaded; `exchange` may be
/// called concurrently once the server table is final (the registered
/// servers themselves must then also be thread-safe).
class InMemoryDnsNetwork : public DnsTransport {
 public:
  /// Registers (or replaces) the server reachable at `address`. The network
  /// keeps a non-owning reference; the server must outlive the network's use.
  void register_server(net::Ipv4Addr address, DnsServer* server);

  /// Removes a server.
  void unregister_server(net::Ipv4Addr address);

  [[nodiscard]] bool has_server(net::Ipv4Addr address) const;

  /// Number of exchanges performed (for measurement-overhead accounting).
  [[nodiscard]] std::uint64_t exchange_count() const { return exchanges_.sum(); }

  std::vector<std::uint8_t> exchange(net::Ipv4Addr source, net::Ipv4Addr destination,
                                     std::span<const std::uint8_t> query) override;

 private:
  std::unordered_map<net::Ipv4Addr, DnsServer*> servers_;
  net::ThreadCounter exchanges_;  // bumped per exchange by every worker
};

}  // namespace drongo::dns
