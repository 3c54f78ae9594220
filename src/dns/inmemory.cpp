#include "dns/inmemory.hpp"

#include "net/error.hpp"

namespace drongo::dns {

void InMemoryDnsNetwork::register_server(net::Ipv4Addr address, DnsServer* server) {
  if (server == nullptr) throw net::InvalidArgument("null DnsServer");
  servers_[address] = server;
}

void InMemoryDnsNetwork::unregister_server(net::Ipv4Addr address) {
  servers_.erase(address);
}

bool InMemoryDnsNetwork::has_server(net::Ipv4Addr address) const {
  return servers_.contains(address);
}

std::vector<std::uint8_t> InMemoryDnsNetwork::exchange(
    net::Ipv4Addr source, net::Ipv4Addr destination, std::span<const std::uint8_t> query) {
  auto it = servers_.find(destination);
  if (it == servers_.end()) {
    // Transient by classification: servers get unregistered to simulate
    // outages, and an outage may end — retrying is the right response.
    throw net::UnreachableError("no DNS server at " + destination.to_string());
  }
  exchanges_.add();
  // Full round-trip through the codec, as over a real socket.
  const Message decoded = Message::decode(query);
  const Message response = it->second->handle(decoded, source);
  return response.encode();
}

}  // namespace drongo::dns
