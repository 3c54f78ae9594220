// CdnProvider: the ECS-driven replica mapping service of one CDN.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cdn/profile.hpp"
#include "net/prefix.hpp"
#include "net/sharded_memo.hpp"
#include "topology/world.hpp"

namespace drongo::cdn {

/// One replica cluster: a PoP of the CDN's AS plus the replica hosts there.
struct CdnCluster {
  int pop_index = 0;
  int metro_index = 0;
  topology::GeoPoint location;
  std::vector<net::Ipv4Addr> replicas;
  /// Relative capacity; generic (unmapped) answers rotate over the
  /// highest-capacity clusters.
  double weight = 1.0;
};

/// The replica-selection brain of one simulated CDN.
///
/// Mapping model (the mechanisms §2.1/§3.2 of the paper attribute bad
/// choices to):
///  - Subnets are keyed at `mapping_granularity` bits: everything inside
///    one key shares a mapping (coarse measurement).
///  - Each mapped key has a PERSISTENT cluster choice: the cluster with the
///    lowest CDN-estimated latency, where the estimate is geographic
///    distance distorted by deterministic per-(key,cluster) lognormal noise
///    (imperfect measurement), and with probability `mapping_error_rate`
///    the choice is displaced down the ranking (stale data / traffic
///    engineering). Persistence is what makes valley-prone subnets stable
///    over days (Fig. 5b).
///  - Keys the CDN never measured (`mapped_fraction`, biased toward the
///    provider's build-out regions) receive GENERIC answers rotating over
///    the largest clusters — unstable across queries (Fig. 5a).
///  - Per query, load balancing spills to the runner-up cluster with
///    probability `lb_spill_prob`, and the returned replica list is
///    rotated so the first replica varies (why Drongo must respect the
///    given order rather than cherry-pick).
///  - In anycast mode every returned address is a VIP whose measured
///    latency is that of the nearest front, so DNS-level choice barely
///    matters (CDNetworks' shallow valleys, Fig. 6).
///
/// Mapping table: the per-key part of the model (mapped or not, the
/// persistent cluster, the top two of the ranking the spill needs) is a pure
/// function of the key, so it is computed once per key and memoized, the way
/// a real CDN ranks servers per address block offline rather than per query.
/// Only keys whose /24 the world has allocated are stored (see
/// World::is_allocated), which bounds the table by the address plan and
/// keeps it exact if hosts are added later; other keys are computed on every
/// query. The table is internally synchronized, so the const overload of
/// select_replicas stays safe to call concurrently.
class CdnProvider {
 public:
  /// `world` is borrowed. `vips` must be non-empty iff profile.anycast.
  CdnProvider(CdnProfile profile, topology::World* world, std::size_t as_index,
              std::vector<CdnCluster> clusters, std::vector<net::Ipv4Addr> vips);

  [[nodiscard]] const CdnProfile& profile() const { return profile_; }
  [[nodiscard]] const std::vector<CdnCluster>& clusters() const { return clusters_; }
  [[nodiscard]] std::size_t as_index() const { return as_index_; }
  [[nodiscard]] const std::vector<net::Ipv4Addr>& vips() const { return vips_; }

  /// The replica set the CDN recommends to `ecs_subnet`, in serving order.
  /// Advances the load-balancing rotation (deliberately stateful, like a
  /// real authoritative). Not thread-safe; campaign code uses the nonce
  /// overload below instead.
  std::vector<net::Ipv4Addr> select_replicas(const net::Prefix& ecs_subnet);

  /// Same selection model, but the load-balancing rotation is derived from
  /// `nonce` (the DNS query id) instead of a shared counter. Queries still
  /// see per-query rotation — ids are drawn from the querying stub's RNG —
  /// but the answer is a pure function of (subnet, nonce), independent of
  /// global query order. This is what makes N-thread campaigns byte-
  /// identical to serial runs. Const and safe to call concurrently.
  [[nodiscard]] std::vector<net::Ipv4Addr> select_replicas(const net::Prefix& ecs_subnet,
                                                           std::uint64_t nonce) const;

  /// The mapping key for a subnet (truncated to granularity).
  [[nodiscard]] net::Prefix mapping_key(const net::Prefix& subnet) const;

  /// Whether the CDN has measured (mapped) this subnet.
  [[nodiscard]] bool is_mapped(const net::Prefix& subnet) const;

  /// The persistent cluster index for a mapped subnet, pre-load-balancing;
  /// -1 for unmapped subnets. Exposed for tests and analysis.
  [[nodiscard]] int mapped_cluster(const net::Prefix& subnet) const;

  /// Queries served (load-balancing rotation position).
  [[nodiscard]] std::uint64_t query_count() const { return query_counter_; }

  /// Keys stored in the mapping table.
  [[nodiscard]] std::size_t mapping_table_size() const { return mapping_table_->size(); }

 private:
  /// One mapping-table entry: what per-query selection needs from a key's
  /// ranking. Compact, since the daemon keeps one per allocated /24 queried.
  struct Mapping {
    std::int16_t persistent = -1;  ///< mapped_cluster(); -1 = unmapped
    std::uint16_t first = 0;       ///< best-ranked cluster
    std::uint16_t second = 0;      ///< runner-up (== first with one cluster)
  };

  /// The mapping of `subnet`'s key, from the table or computed.
  [[nodiscard]] Mapping mapping_of(const net::Prefix& subnet) const;

  /// Ranks the clusters for `key` and derives its Mapping.
  [[nodiscard]] Mapping compute_mapping(const net::Prefix& key) const;

  /// The coverage draw: whether the CDN measured `key`, given the kind of
  /// space it is and the geographic delay to the nearest cluster.
  [[nodiscard]] bool covered(const net::Prefix& key, bool eyeball, double nearest_ms) const;

  /// CDN-internal latency estimate to cluster `cluster_index` from a subnet
  /// `geo_ms` of propagation away, whose representative address is
  /// `representative` (nullptr when it has no measurable endpoint or the
  /// profile ignores routing): geography, blended with the routed RTT,
  /// distorted by persistent noise. The gap between geography and the
  /// routed RTT is one of the two valley sources.
  [[nodiscard]] double estimate_ms(double geo_ms, std::size_t cluster_index,
                                   const net::Prefix& key,
                                   const topology::Host* representative) const;

  std::vector<net::Ipv4Addr> replica_set_from(const CdnCluster& cluster,
                                              std::uint64_t rotation) const;

  /// Shared selection body: both overloads reduce to this once a rotation
  /// position is fixed.
  [[nodiscard]] std::vector<net::Ipv4Addr> select_with_rotation(
      const net::Prefix& ecs_subnet, std::uint64_t rotation) const;

  CdnProfile profile_;
  topology::World* world_;
  std::size_t as_index_;
  std::vector<CdnCluster> clusters_;
  std::vector<net::Ipv4Addr> vips_;
  std::vector<std::size_t> by_weight_;  ///< cluster indices, heaviest first
  std::uint64_t query_counter_ = 0;
  /// Mapping table keyed by the mapping key's network address (every
  /// per-key draw hashes only that). Behind a pointer so the provider
  /// stays movable.
  std::unique_ptr<net::ShardedMemo<std::uint32_t, Mapping>> mapping_table_ =
      std::make_unique<net::ShardedMemo<std::uint32_t, Mapping>>();
};

}  // namespace drongo::cdn
