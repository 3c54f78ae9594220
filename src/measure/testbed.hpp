// Testbed: one self-contained simulated Internet with CDNs, DNS, clients.
//
// This is the experiment stage: it wires together the AS graph, the world,
// the six CDN deployments, their authoritative servers, a public ECS
// resolver, and a population of clients, all behind the in-memory DNS
// fabric. PlanetLab-style (95 clients) and RIPE-style (429 clients) setups
// differ only in TestbedConfig.
#pragma once

#include <memory>
#include <vector>

#include "cdn/authoritative.hpp"
#include "cdn/deploy.hpp"
#include "cdn/resolver.hpp"
#include "cdn/reverse_dns.hpp"
#include "cdn/sites.hpp"
#include "dns/faults.hpp"
#include "dns/hedge.hpp"
#include "dns/inmemory.hpp"
#include "dns/stub_resolver.hpp"
#include "measure/probes.hpp"
#include "topology/as_gen.hpp"
#include "topology/world.hpp"

namespace drongo::measure {

struct TestbedConfig {
  topology::AsGenConfig as_config;
  topology::WorldConfig world_config;
  /// Providers to deploy; defaults to the paper's six.
  std::vector<cdn::CdnProfile> profiles;
  int client_count = 95;
  /// CDN-fronted web sites (CNAME into the CDNs); 0 disables the layer.
  int site_count = 12;
  std::uint64_t seed = 42;
  /// Fault injection on the DNS paths (client<->resolver and
  /// resolver<->authoritative). Defaults to no faults — the pristine
  /// network every existing experiment assumes.
  dns::FaultProfile fault_profile;
  /// Seed for fault draws, independent of the topology seed so the same
  /// world can be measured under different fault realizations.
  std::uint64_t fault_seed = 0xFA17;
  /// Retry/backoff policy handed to every stub this testbed creates.
  dns::ResolverConfig resolver_config;
  /// Serving-path knobs for the public resolver (sharded scoped cache,
  /// singleflight coalescing). Defaults to cache off — the pass-through
  /// resolver every pre-serving experiment assumes, which also keeps
  /// campaign telemetry independent of thread interleaving.
  cdn::ServingConfig serving;
  /// Hedged exchanges on the resolver's upstream path: when nonzero, the
  /// resolver's transport toward authoritatives is wrapped in a
  /// dns::HedgedTransport with this threshold in simulated ms (second
  /// exchange past it, first answer wins; a negative or NaN value throws).
  /// 0 = no decorator, the un-hedged upstream every existing experiment
  /// assumes.
  double hedge_threshold_ms = 0.0;
  /// Wire family every stub announces ECS in (family 1 = the historical
  /// v4-only behaviour; family 2 announces the same subnets through the
  /// sim's v4-in-v6 embedding at ecs_policy.v6_source_length bits). Handed
  /// to every stub this testbed creates.
  dns::EcsFamilyPolicy ecs_policy;

  /// PlanetLab-scale setup (95 nodes, §3.1).
  static TestbedConfig planetlab();
  /// RIPE-Atlas-scale setup (429 probes, §5) — more stubs, more clients.
  static TestbedConfig ripe_atlas();
};

class Testbed {
 public:
  explicit Testbed(TestbedConfig config);

  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  [[nodiscard]] topology::World& world() { return world_; }
  [[nodiscard]] dns::InMemoryDnsNetwork& dns_network() { return network_; }
  [[nodiscard]] const TestbedConfig& config() const { return config_; }

  [[nodiscard]] std::size_t provider_count() const { return providers_.size(); }
  [[nodiscard]] cdn::CdnProvider& provider(std::size_t index) {
    return *providers_.at(index);
  }
  [[nodiscard]] const cdn::CdnProfile& profile(std::size_t index) const {
    return providers_.at(index)->profile();
  }

  /// Content hostnames served by provider `index`.
  [[nodiscard]] const std::vector<dns::DnsName>& content_names(std::size_t index) const;

  /// CDN-fronted sites (resolve their `host` through the resolver and the
  /// CNAME chase lands on CDN replicas).
  [[nodiscard]] const std::vector<cdn::Site>& sites() const { return site_auth_->sites(); }

  [[nodiscard]] const std::vector<net::Ipv4Addr>& clients() const { return clients_; }
  [[nodiscard]] net::Ipv4Addr resolver_address() const { return resolver_address_; }
  [[nodiscard]] cdn::PublicResolver& resolver() { return *resolver_; }
  /// Authoritative server addresses, in provider order (outage targets).
  [[nodiscard]] const std::vector<net::Ipv4Addr>& authoritative_addresses() const {
    return auth_addresses_;
  }

  /// The fault decorator on the client's UDP path (stub -> resolver).
  [[nodiscard]] dns::FaultyTransport& client_faults() { return *client_faults_; }
  /// The fault decorator on the resolver's upstream path (-> authoritatives).
  [[nodiscard]] dns::FaultyTransport& resolver_faults() { return *resolver_faults_; }
  /// The hedging decorator on the resolver's upstream path, or nullptr when
  /// TestbedConfig::hedge_threshold_ms is 0.
  [[nodiscard]] dns::HedgedTransport* hedged_upstream() { return hedged_upstream_.get(); }

  /// A stub resolver for one client, pointed at the public resolver through
  /// the fault fabric, with the TCP fallback channel attached (so injected
  /// truncation exercises the RFC 1035 TCP retry path).
  dns::StubResolver make_stub(net::Ipv4Addr client, std::uint64_t seed = 1);

  /// Attaches an obs registry to all three fault fabrics and the public
  /// resolver (borrowed; nullptr detaches). Injected faults then appear as
  /// `dns.fault.<scope>.*` with scopes client_udp, client_tcp, and
  /// resolver; the resolver's serving path as `dns.cache.*` and
  /// `cdn.resolver.*`.
  void set_registry(obs::Registry* registry) {
    client_faults_->set_registry(registry, "client_udp");
    client_tcp_faults_->set_registry(registry, "client_tcp");
    resolver_faults_->set_registry(registry, "resolver");
    if (hedged_upstream_ != nullptr) hedged_upstream_->set_registry(registry);
    resolver_->set_registry(registry);
  }

 private:
  static topology::AsGraph build_graph(TestbedConfig& config,
                                       std::vector<cdn::CdnPlan>& plans_out);

  TestbedConfig config_;
  std::vector<cdn::CdnPlan> plans_;
  topology::World world_;
  dns::InMemoryDnsNetwork network_;
  std::vector<std::unique_ptr<cdn::CdnProvider>> providers_;
  std::vector<std::unique_ptr<cdn::CdnAuthoritative>> authoritatives_;
  std::vector<net::Ipv4Addr> auth_addresses_;
  /// Fault decorators over the in-memory fabric: the client's UDP and TCP
  /// channels and the resolver's upstream channel each draw from their own
  /// stream, so one path's faults never perturb another's.
  std::unique_ptr<dns::FaultyTransport> client_faults_;
  std::unique_ptr<dns::FaultyTransport> client_tcp_faults_;
  std::unique_ptr<dns::FaultyTransport> resolver_faults_;
  /// Hedging decorator over resolver_faults_; non-null only when hedging.
  std::unique_ptr<dns::HedgedTransport> hedged_upstream_;
  std::unique_ptr<cdn::PublicResolver> resolver_;
  std::unique_ptr<cdn::SiteAuthoritative> site_auth_;
  std::unique_ptr<cdn::ReverseDnsAuthoritative> reverse_dns_;
  net::Ipv4Addr resolver_address_;
  std::vector<net::Ipv4Addr> clients_;
};

}  // namespace drongo::measure
