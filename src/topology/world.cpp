#include "topology/world.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <string>

#include "net/error.hpp"

namespace drongo::topology {

namespace {
/// First /16 block: 20.0.0.0. Avoids all reserved/private IPv4 space for
/// several thousand ASes.
constexpr std::uint32_t kBlockBase = (20u << 24);
constexpr int kRouterSlots = 32;   ///< third octets 0..31 reserved for routers
constexpr std::uint32_t kAnycastBase = (198u << 24) | (18u << 16);  // 198.18.0.0/16
}  // namespace

World::World(AsGraph graph, WorldConfig config)
    : graph_(std::move(graph)),
      config_(config),
      routing_(&graph_),
      alloc_rng_(config.seed),
      next_host_slot_(graph_.node_count(), kRouterSlots) {
  pop_delay_offset_.reserve(graph_.node_count());
  for (const AsNode& node : graph_.nodes()) {
    pop_delay_offset_.push_back(pop_delay_ms_.size());
    for (const Pop& from : node.pops) {
      for (const Pop& to : node.pops) {
        pop_delay_ms_.push_back(propagation_ms(from.location, to.location));
      }
    }
  }
}

net::Prefix World::block_of(std::size_t as_index) const {
  if (as_index >= graph_.node_count()) {
    throw net::InvalidArgument("AS index out of range");
  }
  return net::Prefix(
      net::Ipv4Addr(kBlockBase + (static_cast<std::uint32_t>(as_index) << 16)), 16);
}

net::Ipv4Addr World::add_host(std::size_t as_index, HostKind kind, int pop_index) {
  const AsNode& node = graph_.node(as_index);
  if (pop_index < 0) {
    pop_index = static_cast<int>(alloc_rng_.index(node.pops.size()));
  }
  if (pop_index >= static_cast<int>(node.pops.size())) {
    throw net::InvalidArgument("PoP index out of range for " + node.asn.to_string());
  }
  int& slot = next_host_slot_[as_index];
  if (slot > 255) {
    throw net::Error("host space exhausted in " + node.asn.to_string());
  }
  Host host;
  host.address = net::Ipv4Addr(block_of(as_index).network().to_uint() |
                               (static_cast<std::uint32_t>(slot) << 8) | 10u);
  ++slot;
  host.as_index = as_index;
  host.pop_index = pop_index;
  const GeoPoint& pop = node.pops[static_cast<std::size_t>(pop_index)].location;
  // Clients sit within metro range of their PoP (tens of km); servers are
  // in the PoP's datacenter, so co-located servers are latency-identical.
  const double jitter = kind == HostKind::kClient ? 0.3 : 0.005;
  host.location = {pop.lat_deg + alloc_rng_.uniform_real(-jitter, jitter),
                   pop.lon_deg + alloc_rng_.uniform_real(-jitter, jitter)};
  host.kind = kind;
  host.access_ms = kind == HostKind::kClient
                       ? alloc_rng_.uniform_real(config_.client_access_ms_min,
                                                 config_.client_access_ms_max)
                       : alloc_rng_.uniform_real(config_.server_access_ms_min,
                                                 config_.server_access_ms_max);
  hosts_[host.address] = host;
  return host.address;
}

net::Ipv4Addr World::add_anycast(std::vector<net::Ipv4Addr> instances) {
  if (instances.empty()) throw net::InvalidArgument("anycast group needs instances");
  for (auto instance : instances) {
    if (!hosts_.contains(instance)) {
      throw net::InvalidArgument("anycast instance " + instance.to_string() +
                                 " is not a host");
    }
  }
  if (next_anycast_ > 0xFFFF) throw net::Error("anycast space exhausted");
  const net::Ipv4Addr address(kAnycastBase + next_anycast_++);
  anycast_[address] = std::move(instances);
  return address;
}

const Host& World::host(net::Ipv4Addr address) const {
  auto it = hosts_.find(address);
  if (it == hosts_.end()) {
    throw net::InvalidArgument("no host at " + address.to_string());
  }
  return it->second;
}

bool World::is_host(net::Ipv4Addr address) const { return hosts_.contains(address); }
bool World::is_anycast(net::Ipv4Addr address) const { return anycast_.contains(address); }

std::optional<std::size_t> World::as_index_of(net::Ipv4Addr ip) const {
  const std::uint32_t bits = ip.to_uint();
  if (bits < kBlockBase) return std::nullopt;
  const std::uint32_t index = (bits - kBlockBase) >> 16;
  if (index >= graph_.node_count()) return std::nullopt;
  return static_cast<std::size_t>(index);
}

net::Asn World::asn_of(net::Ipv4Addr ip) const {
  auto index = as_index_of(ip);
  return index ? graph_.node(*index).asn : net::Asn(0);
}

std::optional<net::Ipv4Addr> World::plan_v4_of(const net::IpAddr& ip) {
  if (ip.is_v4()) return ip.v4();
  const net::Ipv6Addr v6 = ip.v6();
  if (v6.is_v4_mapped()) return v6.mapped_v4();
  return net::extract_embedded_v4(v6);
}

std::optional<std::size_t> World::as_index_of(const net::IpAddr& ip) const {
  const auto v4 = plan_v4_of(ip);
  return v4 ? as_index_of(*v4) : std::nullopt;
}

net::Asn World::asn_of(const net::IpAddr& ip) const {
  const auto v4 = plan_v4_of(ip);
  return v4 ? asn_of(*v4) : net::Asn(0);
}

std::string World::rdns_of(const net::IpAddr& ip) const {
  const auto v4 = plan_v4_of(ip);
  return v4 ? rdns_of(*v4) : std::string();
}

std::string World::rdns_of(net::Ipv4Addr ip) const {
  if (auto it = hosts_.find(ip); it != hosts_.end()) {
    const Host& h = it->second;
    return "host" + std::to_string(ip.octet(2)) + "." +
           graph_.node(h.as_index).domain;
  }
  auto index = as_index_of(ip);
  if (!index) return "";
  const int third = ip.octet(2);
  const int slot = ip.octet(3);
  const AsNode& node = graph_.node(*index);
  // Router space: two /24s per PoP (core and edge router interfaces).
  const int pop = third / 2;
  if (third < kRouterSlots && pop < static_cast<int>(node.pops.size())) {
    const auto& metro =
        world_metros()[static_cast<std::size_t>(node.pops[static_cast<std::size_t>(pop)].metro_index)];
    const char* role = (third % 2 == 0) ? "core" : "edge";
    return role + std::to_string(slot) + "." + metro.name + "." + node.domain;
  }
  return "";
}

std::string_view World::rdns_view(net::Ipv4Addr ip) {
  if (const std::string* name = names_.lookup(ip)) return *name;
  return names_.insert(ip, rdns_of(ip));
}

std::optional<GeoPoint> World::location_of(net::Ipv4Addr ip) const {
  if (auto it = hosts_.find(ip); it != hosts_.end()) return it->second.location;
  if (auto it = anycast_.find(ip); it != anycast_.end()) {
    return location_of(it->second.front());
  }
  auto index = as_index_of(ip);
  if (!index) return std::nullopt;
  const AsNode& node = graph_.node(*index);
  const int third = ip.octet(2);
  const int pop = third / 2;
  if (third < kRouterSlots && pop < static_cast<int>(node.pops.size())) {
    return node.pops[static_cast<std::size_t>(pop)].location;
  }
  return node.pops[0].location;
}

std::optional<GeoPoint> World::subnet_location(const net::Prefix& subnet) const {
  // A /24's representative is any address within it; router and host /24s
  // are homogeneous by construction.
  return location_of(net::Ipv4Addr(subnet.network().to_uint() | 10u));
}

SubnetKind World::subnet_kind(const net::Prefix& subnet) const {
  const auto index = as_index_of(subnet.network());
  if (!index) return SubnetKind::kUnknown;
  const int third = subnet.network().octet(2);
  if (third >= kRouterSlots) return SubnetKind::kHost;
  const AsNode& node = graph_.node(*index);
  return third / 2 < static_cast<int>(node.pops.size()) ? SubnetKind::kRouter
                                                        : SubnetKind::kUnknown;
}

bool World::is_allocated(const net::Prefix& subnet) const {
  switch (subnet_kind(subnet)) {
    case SubnetKind::kRouter:
      return true;
    case SubnetKind::kHost:
      return hosts_.contains(net::Ipv4Addr((subnet.network().to_uint() & ~0xFFu) | 10u));
    case SubnetKind::kUnknown:
      break;
  }
  return false;
}

net::Ipv4Addr World::router_address(std::size_t as_index, int pop_index, int slot,
                                    bool edge) const {
  const std::uint32_t third = static_cast<std::uint32_t>(pop_index) * 2 + (edge ? 1 : 0);
  return net::Ipv4Addr(block_of(as_index).network().to_uint() | (third << 8) |
                       static_cast<std::uint32_t>(slot));
}

namespace {
std::uint64_t stateless_mix(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}
}  // namespace

net::Ipv4Addr World::resolve_anycast(net::Ipv4Addr src, net::Ipv4Addr dst) {
  auto it = anycast_.find(dst);
  if (it == anycast_.end()) return dst;
  const std::uint64_t key = (std::uint64_t{src.to_uint()} << 32) | dst.to_uint();
  if (const net::Ipv4Addr* cached = anycast_cache_.lookup(key)) return *cached;
  // Rank instances by base latency from the source.
  std::vector<std::pair<double, net::Ipv4Addr>> ranked;
  ranked.reserve(it->second.size());
  for (auto instance : it->second) {
    ranked.emplace_back(one_way_base_ms(src, instance), instance);
  }
  std::sort(ranked.begin(), ranked.end());
  // BGP anycast is not latency-optimal: a deterministic per-(source /24,
  // VIP) quirk sometimes routes to a runner-up front. Deterministic, so a
  // client's view of one VIP is stable across trials.
  const std::uint64_t h =
      stateless_mix((std::uint64_t{src.to_uint() >> 8} << 32) ^ dst.to_uint() ^
                    (config_.seed * 0x9E3779B97F4A7C15ULL));
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  std::size_t pick = 0;
  if (u < config_.anycast_detour_prob && ranked.size() > 1) {
    // Geometric depth: mostly the second-nearest, occasionally deeper.
    pick = 1;
    std::uint64_t g = stateless_mix(h);
    while ((g & 3) == 0 && pick + 1 < ranked.size()) {  // 25% to go deeper
      ++pick;
      g = stateless_mix(g);
    }
  }
  // Deterministic, so concurrent misses on the same pair agree on it.
  return anycast_cache_.insert(key, ranked[pick].second);
}

template <typename OnPoint>
double World::walk_path(const Host& src, const Host& dst, OnPoint&& on_point) {
  double total = src.access_ms;
  std::size_t current_as = src.as_index;
  int current_pop = src.pop_index;
  on_point(current_as, current_pop, total);

  if (src.as_index != dst.as_index) {
    const std::span<const RouteEntry> table = routing_.table_for(dst.as_index);
    if (table[src.as_index].cls == RouteClass::kNone) {
      throw net::Error("no route from " + graph_.node(src.as_index).asn.to_string() +
                       " to " + graph_.node(dst.as_index).asn.to_string());
    }
    for (std::size_t steps = 1; current_as != dst.as_index; ++steps) {
      if (steps >= table.size()) {
        throw net::Error("routing loop detected toward node " +
                         std::to_string(dst.as_index));
      }
      const std::size_t next_as = table[current_as].next_node;
      // Hot-potato link selection among the parallel interconnects of this
      // AS pair: hand the traffic off at the cheapest point from here.
      const std::span<const std::size_t> candidates =
          graph_.links_between(current_as, next_as);
      if (candidates.empty()) {
        throw net::Error("routing step without a connecting link");
      }
      std::size_t best_link = candidates.front();
      double best_cost = std::numeric_limits<double>::infinity();
      for (std::size_t l : candidates) {
        const AsLink& link = graph_.link(l);
        const int exit_pop = link.a == current_as ? link.pop_a : link.pop_b;
        const double cost = pop_delay_ms(current_as, current_pop, exit_pop) + link.latency_ms;
        if (cost < best_cost) {
          best_cost = cost;
          best_link = l;
        }
      }
      const AsLink& link = graph_.link(best_link);
      const bool forward = link.a == current_as;
      const int exit_pop = forward ? link.pop_a : link.pop_b;
      const int entry_pop = forward ? link.pop_b : link.pop_a;
      // Intra-AS carriage from the current PoP to the egress PoP.
      total += pop_delay_ms(current_as, current_pop, exit_pop) + config_.intra_as_hop_ms;
      if (exit_pop != current_pop) on_point(current_as, exit_pop, total);
      // Cross the inter-AS link.
      total += link.latency_ms;
      current_as = next_as;
      current_pop = entry_pop;
      on_point(current_as, current_pop, total);
    }
  }

  // Final intra-AS leg to the destination host's own location.
  const GeoPoint& current_loc =
      graph_.node(current_as).pops[static_cast<std::size_t>(current_pop)].location;
  total += propagation_ms(current_loc, dst.location) + config_.intra_as_hop_ms +
           dst.access_ms;
  on_point(dst.as_index, current_pop, total);
  return total;
}

std::vector<World::PathPoint> World::pop_path(const Host& src, const Host& dst) {
  std::vector<PathPoint> points;
  walk_path(src, dst, [&points](std::size_t as_index, int pop_index, double ms) {
    points.push_back({as_index, pop_index, ms});
  });
  return points;
}

double World::path_one_way_ms(const Host& src, const Host& dst) {
  return walk_path(src, dst, [](std::size_t, int, double) {});
}

std::optional<Host> World::endpoint_of(net::Ipv4Addr ip) const {
  if (auto it = hosts_.find(ip); it != hosts_.end()) return it->second;
  const auto index = as_index_of(ip);
  if (index && subnet_kind(net::Prefix(ip, 24)) == SubnetKind::kRouter) {
    // Synthesize an endpoint at the router's PoP: routers answer pings.
    Host h;
    h.address = ip;
    h.as_index = *index;
    h.pop_index = ip.octet(2) / 2;
    h.location =
        graph_.node(*index).pops[static_cast<std::size_t>(h.pop_index)].location;
    h.access_ms = 0.2;
    h.kind = HostKind::kServer;
    return h;
  }
  return std::nullopt;
}

double World::one_way_base_ms(net::Ipv4Addr src, net::Ipv4Addr dst) {
  const net::Ipv4Addr real_dst = resolve_anycast(src, dst);
  const std::uint64_t key =
      (std::uint64_t{src.to_uint()} << 32) | real_dst.to_uint();
  if (const double* cached = one_way_cache_.lookup(key)) return *cached;
  const auto measurable = [this](net::Ipv4Addr ip) {
    auto endpoint = endpoint_of(ip);
    if (!endpoint) throw net::InvalidArgument("no measurable endpoint at " + ip.to_string());
    return *endpoint;
  };
  // The path is deterministic, so concurrent misses on the same pair agree
  // on the value.
  const Host from = measurable(src);
  const double ms = path_one_way_ms(from, measurable(real_dst));
  one_way_cache_.insert(key, ms);
  return ms;
}

double World::rtt_base_ms(net::Ipv4Addr src, net::Ipv4Addr dst) {
  return 2.0 * one_way_base_ms(src, dst);
}

double World::rtt_sample_ms(net::Ipv4Addr src, net::Ipv4Addr dst, net::Rng& rng) {
  return rtt_sample_from_base_ms(rtt_base_ms(src, dst), rng);
}

double World::rtt_sample_from_base_ms(double base_rtt_ms, net::Rng& rng) const {
  double rtt = base_rtt_ms * rng.lognormal(0.0, config_.rtt_noise_sigma);
  if (rng.chance(config_.spike_prob)) {
    rtt += rng.exponential(1.0 / config_.spike_mean_ms);
  }
  return rtt;
}

std::vector<World::SkeletonHop> World::traceroute_skeleton(net::Ipv4Addr src,
                                                           net::Ipv4Addr dst) {
  const net::Ipv4Addr real_dst = resolve_anycast(src, dst);
  const Host& s = host(src);
  const Host& d = host(real_dst);
  const auto points = pop_path(s, d);
  std::vector<SkeletonHop> hops;
  hops.reserve(2 * (points.size() - 1) + 1);
  // Every PoP waypoint (except the synthetic final host point) renders as
  // two router hops — the PoP's edge and core routers, which live in
  // separate /24s, as real traceroutes show multiple interfaces per site.
  for (std::size_t i = 0; i + 1 < points.size(); ++i) {
    const PathPoint& p = points[i];
    const int slot = 1 + static_cast<int>(i % 3);
    for (int stage = 0; stage < 2; ++stage) {
      SkeletonHop hop;
      hop.ip = router_address(p.as_index, p.pop_index, slot, /*edge=*/stage == 0);
      hop.rdns = rdns_view(hop.ip);
      hop.asn = graph_.node(p.as_index).asn;
      hop.base_rtt_ms = 2.0 * p.cumulative_one_way_ms + stage * 0.2;
      hops.push_back(hop);
    }
  }
  hops.push_back({real_dst, graph_.node(d.as_index).asn,
                  2.0 * points.back().cumulative_one_way_ms, rdns_view(real_dst)});
  return hops;
}

std::vector<TracerouteHop> World::traceroute(net::Ipv4Addr src, net::Ipv4Addr dst,
                                             net::Rng& rng) {
  const std::uint64_t key = (std::uint64_t{src.to_uint()} << 32) | dst.to_uint();
  const std::vector<SkeletonHop>* skeleton = skeleton_cache_.lookup(key);
  // The skeleton is deterministic, so concurrent misses on the same pair
  // agree on it; the first insert is the one every caller then reads.
  if (skeleton == nullptr) skeleton = &skeleton_cache_.insert(key, traceroute_skeleton(src, dst));

  std::vector<TracerouteHop> hops;
  hops.reserve(skeleton->size() + (config_.first_hop_private ? 1 : 0));
  if (config_.first_hop_private) {
    TracerouteHop gw;
    gw.ip = net::Ipv4Addr(192, 168, 0, 1);
    gw.rdns = "gateway.local";
    gw.asn = net::Asn(0);
    gw.is_private = true;
    gw.rtt_ms = 2.0 * rng.uniform_real(0.3, 2.0);
    hops.push_back(gw);
  }
  // Draw order per router hop: noise, then the unresponsive chance; the
  // destination draws noise only.
  for (std::size_t i = 0; i < skeleton->size(); ++i) {
    const SkeletonHop& at = (*skeleton)[i];
    TracerouteHop hop;
    hop.ip = at.ip;
    hop.rdns = at.rdns;
    hop.asn = at.asn;
    hop.rtt_ms = at.base_rtt_ms * rng.lognormal(0.0, config_.rtt_noise_sigma);
    if (i + 1 < skeleton->size()) hop.responded = !rng.chance(config_.unresponsive_hop_prob);
    hops.push_back(hop);
  }
  return hops;
}

}  // namespace drongo::topology
