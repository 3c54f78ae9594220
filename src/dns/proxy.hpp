// LDNS proxy: the deployment shell Drongo runs in (paper §4).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>

#include "dns/server.hpp"
#include "net/prefix.hpp"
#include "net/rng.hpp"

namespace drongo::dns {

/// Policy hook that decides, per query, which subnet to announce via ECS.
///
/// Returning nullopt means "no assimilation": the proxy announces the
/// client's own /24. Returning a prefix performs subnet assimilation with
/// that prefix. Drongo's decision engine implements this interface.
class SubnetSelector {
 public:
  virtual ~SubnetSelector() = default;

  /// `domain` is the query name; `client_subnet` is the client's own /24.
  virtual std::optional<net::Prefix> select_subnet(const DnsName& domain,
                                                   const net::Prefix& client_subnet) = 0;
};

/// A local DNS proxy that forwards queries to an upstream recursive resolver
/// (the paper uses Google Public DNS), rewriting the ECS option according to
/// a SubnetSelector before forwarding.
///
/// The client configures this proxy as its default resolver ("Drongo sits on
/// top of a client's DNS system ... set by the client as its default local
/// DNS resolver, and acts as a middle party, reshaping outgoing DNS messages
/// via subnet assimilation"). Responses pass back with the upstream's answer
/// order preserved — the proxy never reorders replicas, respecting the CDN's
/// load-balancing decisions.
class LdnsProxy : public DnsServer {
 public:
  /// `upstream_transport` carries the forwarded queries; `upstream_address`
  /// is the recursive resolver to forward to. `selector` may be null, in
  /// which case the proxy is a transparent ECS-adding forwarder. Borrowed
  /// pointers must outlive the proxy.
  LdnsProxy(DnsTransport* upstream_transport, net::Ipv4Addr upstream_address,
            net::Ipv4Addr proxy_address, SubnetSelector* selector);

  Message handle(const Message& query, net::Ipv4Addr source) override;

  /// Counters for observability / tests; safe to read while a serving
  /// thread is handling queries.
  [[nodiscard]] std::uint64_t forwarded() const {
    return forwarded_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t assimilated() const {
    return assimilated_.load(std::memory_order_relaxed);
  }
  /// Forwards that failed transiently and were answered SERVFAIL instead.
  [[nodiscard]] std::uint64_t upstream_failures() const {
    return upstream_failures_.load(std::memory_order_relaxed);
  }

  void set_selector(SubnetSelector* selector) { selector_ = selector; }

 private:
  DnsTransport* upstream_;
  net::Ipv4Addr upstream_address_;
  net::Ipv4Addr proxy_address_;
  SubnetSelector* selector_;
  /// Relaxed atomics: the serving thread writes them while other threads
  /// read them.
  std::atomic<std::uint64_t> forwarded_{0};
  std::atomic<std::uint64_t> assimilated_{0};
  std::atomic<std::uint64_t> upstream_failures_{0};
};

}  // namespace drongo::dns
