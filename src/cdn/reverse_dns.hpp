// Reverse-DNS authoritative: serves PTR records for the simulated Internet.
#pragma once

#include "dns/server.hpp"
#include "topology/world.hpp"

namespace drongo::cdn {

/// Authoritative for in-addr.arpa, answering PTR queries from the world's
/// address registry (router and host names). Traceroute-style tooling looks
/// hop names up here — through the real DNS path — instead of peeking at
/// the simulator. Names the world has interned for its traceroutes are read
/// from its table; others are built per query and never added to it.
class ReverseDnsAuthoritative : public dns::DnsServer {
 public:
  /// `world` is borrowed and must outlive the server.
  explicit ReverseDnsAuthoritative(const topology::World* world);

  dns::Message handle(const dns::Message& query, net::Ipv4Addr source) override;

 private:
  const topology::World* world_;
};

}  // namespace drongo::cdn
