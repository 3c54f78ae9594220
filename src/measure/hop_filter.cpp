#include "measure/hop_filter.hpp"

#include "net/bogon.hpp"
#include "net/strings.hpp"

namespace drongo::measure {

namespace {

bool is_bogon_ip(const net::IpAddr& ip) {
  return ip.is_v4() ? net::is_bogon(ip.v4()) : net::is_bogon(ip.v6());
}

/// Condition (i)'s site prefix: /16 for v4 (the paper's rule), /32 for v6
/// (the conventional per-site allocation at the same operational grain).
int site_bits(net::IpFamily family) {
  return family == net::IpFamily::kV4 ? 16 : 32;
}

}  // namespace

std::vector<bool> usable_hops(const topology::World& world, const net::IpAddr& client,
                              const std::vector<IpHop>& hops,
                              const HopFilterConfig& config) {
  const net::IpPrefix client_site(client, site_bits(client.family()));
  const net::Asn client_asn = world.asn_of(client);
  const std::string client_rdns = world.rdns_of(client);
  const std::string_view client_domain = net::registrable_domain_view(client_rdns);

  std::vector<bool> usable(hops.size(), false);
  bool past_filter = false;
  for (std::size_t i = 0; i < hops.size(); ++i) {
    const auto& hop = hops[i];
    // Hard conditions that hold everywhere on the route: the hop must be a
    // responding, globally routable address, or ECS for it is meaningless.
    // Bogon space (either family) is the v6-capable spelling of the old
    // v4-only !is_global_unicast() rejection.
    if (!hop.responded || hop.is_private || is_bogon_ip(hop.ip)) {
      continue;
    }
    if (past_filter && config.stop_after_first_usable) {
      usable[i] = true;
      continue;
    }
    bool passes = true;
    // contains() is family-checked: a hop in the other family trivially
    // lives outside the client's site prefix.
    if (config.require_different_slash16 && client_site.contains(hop.ip)) {
      passes = false;
    }
    if (passes && config.require_different_asn && hop.asn == client_asn) {
      passes = false;
    }
    if (passes && config.require_different_domain) {
      const std::string_view hop_domain = net::registrable_domain_view(hop.rdns);
      if (!hop_domain.empty() && net::iequals(hop_domain, client_domain)) passes = false;
    }
    if (passes) {
      usable[i] = true;
      past_filter = true;
    }
  }
  return usable;
}

std::vector<bool> usable_hops(const topology::World& world, net::Ipv4Addr client,
                              const std::vector<topology::TracerouteHop>& hops,
                              const HopFilterConfig& config) {
  std::vector<IpHop> views;
  views.reserve(hops.size());
  for (const auto& hop : hops) {
    views.push_back(IpHop{net::IpAddr(hop.ip), hop.rdns, hop.asn, hop.is_private,
                          hop.responded});
  }
  return usable_hops(world, net::IpAddr(client), views, config);
}

}  // namespace drongo::measure
