#include "measure/testbed.hpp"

#include "dns/reverse.hpp"

#include <algorithm>

#include "net/error.hpp"

namespace drongo::measure {

TestbedConfig TestbedConfig::planetlab() {
  TestbedConfig config;
  config.as_config.stub_count = 220;
  config.profiles = cdn::paper_providers();
  config.client_count = 95;
  config.seed = 42;
  return config;
}

TestbedConfig TestbedConfig::ripe_atlas() {
  TestbedConfig config;
  config.as_config.stub_count = 480;
  config.as_config.tier2_count = 48;
  config.profiles = cdn::paper_providers();
  config.client_count = 429;
  config.seed = 1729;
  return config;
}

topology::AsGraph Testbed::build_graph(TestbedConfig& config,
                                       std::vector<cdn::CdnPlan>& plans_out) {
  if (config.profiles.empty()) config.profiles = cdn::paper_providers();
  config.as_config.seed = config.seed;
  config.world_config.seed = config.seed ^ 0x5EEDFACE;
  topology::AsGraph graph = topology::generate_as_graph(config.as_config);
  net::Rng rng(config.seed ^ 0xCD4);
  plans_out.clear();
  plans_out.reserve(config.profiles.size());
  for (const auto& profile : config.profiles) {
    plans_out.push_back(cdn::plan_cdn(graph, profile, rng));
  }
  return graph;
}

Testbed::Testbed(TestbedConfig config)
    : config_(std::move(config)),
      world_(build_graph(config_, plans_), config_.world_config) {
  net::Rng rng(config_.seed ^ 0x7E57BED);

  // Deploy CDNs: replica hosts, anycast VIPs, authoritative servers.
  for (const auto& plan : plans_) {
    providers_.push_back(std::make_unique<cdn::CdnProvider>(cdn::deploy_cdn(world_, plan)));
  }
  for (auto& provider : providers_) {
    authoritatives_.push_back(std::make_unique<cdn::CdnAuthoritative>(provider.get()));
    // The authoritative listens at a host inside the CDN's own AS.
    const net::Ipv4Addr auth_addr =
        world_.add_host(provider->as_index(), topology::HostKind::kServer, 0);
    network_.register_server(auth_addr, authoritatives_.back().get());
    // Bind the zone at the public resolver once it exists (below); remember
    // the address via the plan order.
    auth_addresses_.push_back(auth_addr);
  }

  // The public recursive resolver lives in a tier-1 backbone.
  std::size_t t1_index = 0;
  for (std::size_t v = 0; v < world_.graph().node_count(); ++v) {
    if (world_.graph().node(v).tier == topology::AsTier::kTier1) {
      t1_index = v;
      break;
    }
  }
  resolver_address_ = world_.add_host(t1_index, topology::HostKind::kServer, 0);
  // Fault decorators sit on every DNS path. With the default (inactive)
  // profile they are transparent; with faults configured, the client path
  // and the resolver's upstream path draw from distinct seeds so the two
  // hops fail independently, as distinct network segments do.
  client_faults_ = std::make_unique<dns::FaultyTransport>(
      &network_, config_.fault_seed, config_.fault_profile,
      dns::FaultyTransport::Channel::kUdp);
  client_tcp_faults_ = std::make_unique<dns::FaultyTransport>(
      &network_, config_.fault_seed, config_.fault_profile,
      dns::FaultyTransport::Channel::kTcp);
  // The resolver's upstream path uses the kTcp personality: a real
  // recursive performs its own UDP->TCP fallback when an authoritative
  // truncates, invisibly to the client, so injected truncation must not
  // fire on this segment (every other fault still does).
  resolver_faults_ = std::make_unique<dns::FaultyTransport>(
      &network_, config_.fault_seed ^ 0xA07D, config_.fault_profile,
      dns::FaultyTransport::Channel::kTcp);
  // Hedging wraps the faulty upstream: the hedge's duplicate exchange goes
  // through the same fault fabric (with fresh fault draws, since its bytes
  // differ), exactly the path a real second datagram would take.
  dns::DnsTransport* upstream = resolver_faults_.get();
  if (config_.hedge_threshold_ms != 0.0) {
    hedged_upstream_ = std::make_unique<dns::HedgedTransport>(resolver_faults_.get(),
                                                              config_.hedge_threshold_ms);
    upstream = hedged_upstream_.get();
  }
  resolver_ = std::make_unique<cdn::PublicResolver>(upstream, resolver_address_,
                                                    config_.serving);
  network_.register_server(resolver_address_, resolver_.get());
  for (std::size_t i = 0; i < providers_.size(); ++i) {
    resolver_->register_zone(dns::DnsName::must_parse(providers_[i]->profile().zone),
                             auth_addresses_[i]);
  }

  // CDN-fronted web sites: one authoritative carries all the small site
  // zones; their answers are CNAMEs the resolver chases into the CDNs.
  site_auth_ = std::make_unique<cdn::SiteAuthoritative>();
  if (config_.site_count > 0) {
    std::vector<std::vector<dns::DnsName>> per_provider_names;
    for (std::size_t i = 0; i < providers_.size(); ++i) {
      per_provider_names.push_back(content_names(i));
    }
    net::Rng site_rng(config_.seed ^ 0x517E5);
    for (auto& site : cdn::make_sites(config_.site_count, per_provider_names, site_rng)) {
      site_auth_->add_site(site);
    }
    const net::Ipv4Addr site_dns = world_.add_host(t1_index, topology::HostKind::kServer, 0);
    network_.register_server(site_dns, site_auth_.get());
    for (const auto& site : site_auth_->sites()) {
      resolver_->register_zone(site.zone, site_dns);
    }
  }

  // Reverse DNS for the whole world: hop names are looked up through the
  // DNS path (PTR), not read out of the simulator.
  reverse_dns_ = std::make_unique<cdn::ReverseDnsAuthoritative>(&world_);
  const net::Ipv4Addr reverse_addr =
      world_.add_host(t1_index, topology::HostKind::kServer, 0);
  network_.register_server(reverse_addr, reverse_dns_.get());
  resolver_->register_zone(dns::reverse_zone(), reverse_addr);

  // Clients: spread across stub ASes (round-robin over a shuffled list so a
  // large client population reuses ASes but never a /24).
  std::vector<std::size_t> stubs;
  for (std::size_t v = 0; v < world_.graph().node_count(); ++v) {
    if (world_.graph().node(v).tier == topology::AsTier::kStub) stubs.push_back(v);
  }
  if (stubs.empty()) throw net::Error("testbed graph has no stub ASes for clients");
  rng.shuffle(stubs);
  for (int c = 0; c < config_.client_count; ++c) {
    const std::size_t as_index = stubs[static_cast<std::size_t>(c) % stubs.size()];
    clients_.push_back(world_.add_host(as_index, topology::HostKind::kClient));
  }
}

const std::vector<dns::DnsName>& Testbed::content_names(std::size_t index) const {
  return authoritatives_.at(index)->content_names();
}

dns::StubResolver Testbed::make_stub(net::Ipv4Addr client, std::uint64_t seed) {
  dns::StubResolver stub(client_faults_.get(), client, resolver_address_, seed,
                         config_.resolver_config);
  stub.set_fallback_transport(client_tcp_faults_.get());
  stub.set_ecs_family(config_.ecs_policy);
  return stub;
}

}  // namespace drongo::measure
