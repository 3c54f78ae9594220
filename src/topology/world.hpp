// World: the routable, measurable simulated Internet.
//
// Combines the AS graph, valley-free routing, IP address allocation, and a
// latency model into one queryable object: allocate hosts, compute RTTs,
// run traceroutes, look up who owns an address. Everything above this layer
// (CDN, measurement, Drongo itself) sees only IPs, RTTs, and hops — the same
// observables a real client has.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "net/ip.hpp"
#include "net/ipaddr.hpp"
#include "net/prefix.hpp"
#include "net/rng.hpp"
#include "net/sharded_memo.hpp"
#include "net/types.hpp"
#include "topology/as_graph.hpp"
#include "topology/routing.hpp"

namespace drongo::topology {

/// What a host is for; controls its last-mile latency draw.
enum class HostKind : std::uint8_t {
  kClient,  ///< eyeball: DSL/cable/fiber access latency (1-18 ms one-way)
  kServer,  ///< datacenter: sub-millisecond attachment
};

/// What kind of address space a /24 belongs to in the address plan.
enum class SubnetKind : std::uint8_t {
  kHost,     ///< end-host (eyeball/server) space — what CDNs map eagerly
  kRouter,   ///< infrastructure space (traceroute hops live here)
  kUnknown,  ///< outside the plan (private, unallocated)
};

/// Tuning for the latency and traceroute model.
struct WorldConfig {
  double client_access_ms_min = 1.0;   ///< one-way last-mile, clients
  double client_access_ms_max = 14.0;
  double server_access_ms_min = 0.1;   ///< one-way attachment, servers
  double server_access_ms_max = 0.8;
  double intra_as_hop_ms = 0.15;       ///< per-router forwarding overhead
  /// Multiplicative lognormal sigma applied to every RTT sample. Real
  /// Internet paths jitter far more than a few percent; this noise is what
  /// makes single-trial valley observations unreliable and training
  /// windows necessary.
  double rtt_noise_sigma = 0.08;
  /// Congestion spike: probability and magnitude (added ms, exp-drawn).
  double spike_prob = 0.02;
  double spike_mean_ms = 30.0;
  /// Emit a private-address first hop (home gateway) in traceroutes.
  bool first_hop_private = true;
  /// Probability a transit router doesn't answer traceroute probes.
  double unresponsive_hop_prob = 0.03;
  /// Anycast routing imperfection: probability that a given (source /24,
  /// VIP) pair is routed to a suboptimal front instead of the nearest one
  /// (BGP anycast is not latency-optimal). Deterministic per pair.
  double anycast_detour_prob = 0.55;
  std::uint64_t seed = 7;
};

/// One traceroute line.
struct TracerouteHop {
  net::Ipv4Addr ip;
  /// Reverse-DNS name ("core3.frankfurt.bbone1.net"): a view into the
  /// world's name table, valid while the World lives.
  std::string_view rdns;
  net::Asn asn;            ///< AS0 for private/unresponsive hops
  double rtt_ms = 0.0;     ///< probe RTT to this hop
  bool is_private = false;
  bool responded = true;   ///< false renders as "* * *"
};

/// A registered end host.
struct Host {
  net::Ipv4Addr address;
  std::size_t as_index = 0;
  int pop_index = 0;
  GeoPoint location;
  double access_ms = 1.0;
  HostKind kind = HostKind::kClient;
};

class World {
 public:
  /// Takes ownership of the graph. The graph must be final: routing tables
  /// are cached against it.
  ///
  /// Thread-safety: construction and host/anycast allocation (`add_host`,
  /// `add_anycast`) are setup-phase operations and must be single-threaded.
  /// Once the world is built, all query paths (latency, traceroute,
  /// lookups) are safe to call concurrently — the RTT and routing caches
  /// are pure accelerations guarded internally.
  explicit World(AsGraph graph, WorldConfig config = {});

  [[nodiscard]] const AsGraph& graph() const { return graph_; }
  [[nodiscard]] BgpRouting& routing() { return routing_; }
  [[nodiscard]] const WorldConfig& config() const { return config_; }

  // ---- Address plan -------------------------------------------------------
  // Each AS node i owns the /16 starting at 20.0.0.0 + i*2^16. Within it,
  // third octets 0..31 hold router /24s (two per PoP: core and edge, so at
  // most 16 PoPs per AS), 32..255 hold host /24s (one per host — every host
  // is its own /24, the unit of ECS mapping). Anycast service addresses
  // live in 198.18.0.0/16.

  /// The /16 owned by AS node `as_index`.
  [[nodiscard]] net::Prefix block_of(std::size_t as_index) const;

  /// Allocates a new host in `as_index` at `pop_index` (-1 = random PoP).
  /// Each host receives a fresh /24 and a deterministic location near the
  /// PoP. Throws when the AS's host space (224 /24s) is exhausted.
  net::Ipv4Addr add_host(std::size_t as_index, HostKind kind, int pop_index = -1);

  /// Registers an anycast service address whose effective location, when
  /// measured from any source, is the instance with the lowest RTT — the
  /// routing-not-DNS selection the paper observes for CDNetworks.
  net::Ipv4Addr add_anycast(std::vector<net::Ipv4Addr> instances);

  [[nodiscard]] const Host& host(net::Ipv4Addr address) const;
  [[nodiscard]] bool is_host(net::Ipv4Addr address) const;
  [[nodiscard]] bool is_anycast(net::Ipv4Addr address) const;

  // ---- Identity lookups ---------------------------------------------------

  /// AS node index owning `ip` (host, router, or anycast instance owner);
  /// nullopt for addresses outside the plan.
  [[nodiscard]] std::optional<std::size_t> as_index_of(net::Ipv4Addr ip) const;

  /// ASN of `ip`; AS0 when unknown.
  [[nodiscard]] net::Asn asn_of(net::Ipv4Addr ip) const;

  /// Reverse-DNS name for hosts and routers; empty when unknown.
  [[nodiscard]] std::string rdns_of(net::Ipv4Addr ip) const;

  /// rdns_of(ip) interned in the world's name table, built once per
  /// address: the view stays valid while the World lives. Like the latency
  /// memos, it assumes setup (add_host) is over before the first query.
  [[nodiscard]] std::string_view rdns_view(net::Ipv4Addr ip);

  /// The name rdns_view interned for `ip`, or nullptr when nothing has
  /// interned it yet. Lookup only: the name table never grows here, so a
  /// server answering arbitrary addresses cannot fill it.
  [[nodiscard]] const std::string* interned_rdns(net::Ipv4Addr ip) const {
    return names_.lookup(ip);
  }

  // ---- Dual-stack identity ------------------------------------------------
  // The world's address plan is v4; its v6 face is the sim embedding
  // (2001:db8::/32 with the v4 identity at bits 32..63). These overloads
  // resolve embedded and v4-mapped v6 addresses to their v4 identity; any
  // other v6 space is outside the plan (nullopt / AS0 / empty rdns).

  /// `ip`'s address in the sim's v6 embedding. Purely derived — no separate
  /// allocation, so every host is dual-homed for free.
  [[nodiscard]] static net::Ipv6Addr v6_of(net::Ipv4Addr ip) {
    return net::embed_v4(ip);
  }

  /// The v4 identity behind a dual-stack address: v4 as-is, embedded or
  /// v4-mapped v6 unwrapped, anything else nullopt.
  [[nodiscard]] static std::optional<net::Ipv4Addr> plan_v4_of(const net::IpAddr& ip);

  [[nodiscard]] std::optional<std::size_t> as_index_of(const net::IpAddr& ip) const;
  [[nodiscard]] net::Asn asn_of(const net::IpAddr& ip) const;
  [[nodiscard]] std::string rdns_of(const net::IpAddr& ip) const;

  /// Geographic location: hosts use their own spot, routers their PoP.
  /// For an anycast address this is the location of instance 0 (callers
  /// measuring latency get per-source nearest-instance behaviour instead).
  [[nodiscard]] std::optional<GeoPoint> location_of(net::Ipv4Addr ip) const;

  /// Representative location for an arbitrary /24 (used by the CDN mapping
  /// service to "geo-locate" an ECS subnet): router /24s map to their PoP,
  /// host /24s to the host. nullopt for unknown space.
  [[nodiscard]] std::optional<GeoPoint> subnet_location(const net::Prefix& subnet) const;

  /// Classifies a /24 as host space, router space, or unknown. CDNs use
  /// this to prioritize eyeball (host) space in their measurement coverage.
  [[nodiscard]] SubnetKind subnet_kind(const net::Prefix& subnet) const;

  /// Whether `subnet`'s /24 is allocated: a router /24 of an existing PoP,
  /// or a host /24 already handed out by add_host. Everything the world
  /// reports about an allocated /24 (kind, location, RTTs to it) is final;
  /// about an unallocated one it may change when a later add_host claims it.
  [[nodiscard]] bool is_allocated(const net::Prefix& subnet) const;

  // ---- Latency ------------------------------------------------------------

  /// Deterministic base one-way delay along the valley-free path (includes
  /// both endpoints' attachment latency). Endpoints may be hosts, anycast
  /// addresses, or router addresses (routers are measurable endpoints too —
  /// CDNs ping infrastructure when mapping subnets). Cached. Throws
  /// net::Error for unknown addresses or unreachable pairs.
  double one_way_base_ms(net::Ipv4Addr src, net::Ipv4Addr dst);

  /// 2x one-way.
  double rtt_base_ms(net::Ipv4Addr src, net::Ipv4Addr dst);

  /// The measurable endpoint at `ip`: a registered host, or a synthetic
  /// endpoint at a router's PoP (routers answer pings). nullopt for anything
  /// else, such as unallocated host space or an anycast address.
  [[nodiscard]] std::optional<Host> endpoint_of(net::Ipv4Addr ip) const;

  /// The base one-way delay between two endpoints (see endpoint_of), walked
  /// afresh: no memo is read or written, and nothing is allocated once
  /// `dst`'s routing table exists. Bit for bit the value one_way_base_ms
  /// memoizes for their addresses when `dst` is not anycast. For callers
  /// that memoize the result themselves, such as CDN mapping probes. Throws
  /// net::Error for unreachable pairs.
  double path_one_way_ms(const Host& src, const Host& dst);

  /// One measured RTT sample: base with lognormal noise and rare spikes.
  double rtt_sample_ms(net::Ipv4Addr src, net::Ipv4Addr dst, net::Rng& rng);

  /// The noise half of rtt_sample_ms on a base RTT the caller already
  /// holds: rtt_sample_ms(src, dst, rng) equals
  /// rtt_sample_from_base_ms(rtt_base_ms(src, dst), rng), draw for draw.
  [[nodiscard]] double rtt_sample_from_base_ms(double base_rtt_ms, net::Rng& rng) const;

  /// Traceroute from a client host toward a destination host: the router
  /// hops along the valley-free path, with the private-gateway first hop
  /// and occasional unresponsive hops per config. The destination itself is
  /// the final entry. Toward an anycast address, the trace follows the path
  /// to the nearest instance (as real anycast does).
  ///
  /// The path's deterministic part (addresses, names, ASNs, base RTTs) is
  /// memoized per (src, dst); a call draws only the gateway RTT, each hop's
  /// noise and its unresponsive chance, so a warm call allocates just the
  /// returned vector.
  std::vector<TracerouteHop> traceroute(net::Ipv4Addr src, net::Ipv4Addr dst,
                                        net::Rng& rng);

  /// Total hosts allocated (observability).
  [[nodiscard]] std::size_t host_count() const { return hosts_.size(); }

 private:
  struct PathPoint {
    std::size_t as_index;
    int pop_index;
    double cumulative_one_way_ms;  ///< up to arrival at this PoP
  };

  /// The RNG-free part of one traceroute line. Ordered to pack into 32 bytes:
  /// a memo entry per (src, dst) pair keeps ~8 of these for the World's life.
  struct SkeletonHop {
    net::Ipv4Addr ip;
    net::Asn asn;
    double base_rtt_ms = 0.0;  ///< scaled by the per-call lognormal draw
    std::string_view rdns;
  };

  /// The router hops of the path from src toward dst, then the (anycast
  /// resolved) destination as the last entry.
  std::vector<SkeletonHop> traceroute_skeleton(net::Ipv4Addr src, net::Ipv4Addr dst);

  /// Router address for (AS, PoP): two /24s per PoP (core at third octet
  /// 2*pop, edge at 2*pop+1), `slot` selecting the interface.
  [[nodiscard]] net::Ipv4Addr router_address(std::size_t as_index, int pop_index,
                                             int slot = 1, bool edge = false) const;

  /// Resolves anycast to the instance `src` reaches (memoized per (src,
  /// VIP)); identity otherwise.
  net::Ipv4Addr resolve_anycast(net::Ipv4Addr src, net::Ipv4Addr dst);

  /// The valley-free walk from src host to dst host: BGP next hops toward
  /// dst, hot-potato interconnect choice at each AS boundary. Calls
  /// `on_point(as_index, pop_index, cumulative_one_way_ms)` at every PoP
  /// waypoint and returns the one-way total. Throws net::Error when dst is
  /// unreachable.
  template <typename OnPoint>
  double walk_path(const Host& src, const Host& dst, OnPoint&& on_point);

  /// PoP-level waypoints and cumulative delays from src host to dst host.
  std::vector<PathPoint> pop_path(const Host& src, const Host& dst);

  /// propagation_ms from PoP `from` to PoP `to` of AS node `as_index`.
  [[nodiscard]] double pop_delay_ms(std::size_t as_index, int from, int to) const {
    const std::size_t pops = graph_.nodes()[as_index].pops.size();
    return pop_delay_ms_[pop_delay_offset_[as_index] +
                         static_cast<std::size_t>(from) * pops + static_cast<std::size_t>(to)];
  }

  AsGraph graph_;
  WorldConfig config_;
  BgpRouting routing_;
  net::Rng alloc_rng_;
  /// Per AS node, the pops x pops matrix of propagation_ms(pops[from],
  /// pops[to]) in that argument order (the haversine is not bit-symmetric),
  /// row-major from pop_delay_offset_[as]. Built with the World and never
  /// changed: every intra-AS leg of a path walk reads it.
  std::vector<double> pop_delay_ms_;
  std::vector<std::size_t> pop_delay_offset_;
  std::unordered_map<net::Ipv4Addr, Host> hosts_;
  std::unordered_map<net::Ipv4Addr, std::vector<net::Ipv4Addr>> anycast_;
  std::vector<int> next_host_slot_;  // per AS node: next third octet (from 32)
  std::uint32_t next_anycast_ = 0;

  /// The one-way delay memo, keyed by (src, resolved dst), sharded to keep
  /// parallel campaign workers from serializing on one lock.
  net::ShardedMemo<std::uint64_t, double> one_way_cache_;
  /// The instance each (src, anycast VIP) pair reaches, so a VIP ping does
  /// not re-rank the instances. Same validity rule as the one-way memo.
  net::ShardedMemo<std::uint64_t, net::Ipv4Addr> anycast_cache_;
  /// Traceroute skeletons keyed by (src, dst as asked, anycast unresolved).
  /// Valid under the one-way memo's rule: add_host/add_anycast finish
  /// before the first query.
  net::ShardedMemo<std::uint64_t, std::vector<SkeletonHop>> skeleton_cache_;
  /// The name table behind rdns_view and every skeleton's rdns.
  net::ShardedMemo<net::Ipv4Addr, std::string> names_;
};

}  // namespace drongo::topology
