#include "cdn/provider.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "net/error.hpp"

namespace drongo::cdn {

namespace {

/// SplitMix64-style stateless mixer for deterministic per-key randomness.
std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

std::uint64_t hash3(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  return mix(a * 0x9E3779B97F4A7C15ULL ^ mix(b) ^ mix(c * 0xFF51AFD7ED558CCDULL + 1));
}

/// Uniform double in [0,1) from a hash.
double hash01(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Standard normal from two hash halves (Box-Muller).
double hash_normal(std::uint64_t h) {
  const double u1 = hash01(mix(h)) + 1e-12;
  const double u2 = hash01(mix(h ^ 0xDEADBEEFCAFEF00DULL));
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
}

}  // namespace

CdnProvider::CdnProvider(CdnProfile profile, topology::World* world,
                         std::size_t as_index, std::vector<CdnCluster> clusters,
                         std::vector<net::Ipv4Addr> vips)
    : profile_(std::move(profile)),
      world_(world),
      as_index_(as_index),
      clusters_(std::move(clusters)),
      vips_(std::move(vips)) {
  if (world_ == nullptr) throw net::InvalidArgument("null World");
  if (clusters_.empty()) throw net::InvalidArgument("CDN needs at least one cluster");
  if (profile_.anycast && vips_.empty()) {
    throw net::InvalidArgument("anycast profile requires VIPs");
  }
  if (clusters_.size() > 0x7FFF) {
    throw net::InvalidArgument("CDN has more clusters than the mapping table indexes");
  }
  by_weight_.resize(clusters_.size());
  for (std::size_t i = 0; i < clusters_.size(); ++i) by_weight_[i] = i;
  std::stable_sort(by_weight_.begin(), by_weight_.end(), [this](std::size_t a, std::size_t b) {
    return clusters_[a].weight > clusters_[b].weight;
  });
}

net::Prefix CdnProvider::mapping_key(const net::Prefix& subnet) const {
  const int g = std::min(profile_.mapping_granularity, subnet.length());
  return subnet.truncated(g);
}

bool CdnProvider::covered(const net::Prefix& key, bool eyeball, double nearest_ms) const {
  // Eyeball space is what clients query from; CDNs map it near-completely.
  // Infrastructure space (where traceroute hops live) gets best-effort
  // coverage biased toward the CDN's build-out regions.
  const double base = eyeball ? profile_.mapped_fraction_eyeball : profile_.mapped_fraction;
  double factor = 1.0;
  if (nearest_ms > 40.0) factor = eyeball ? 0.97 : 0.7;
  if (nearest_ms > 90.0) factor = eyeball ? 0.93 : 0.45;
  const double u = hash01(hash3(profile_.seed, key.network().to_uint(), 0xA11CE));
  return u < base * factor;
}

bool CdnProvider::is_mapped(const net::Prefix& subnet) const {
  const net::Prefix key = mapping_key(subnet);
  const net::Prefix probe(key.network(), 24);
  const auto location = world_->subnet_location(probe);
  if (!location) return false;  // space the CDN cannot even geolocate
  double nearest_ms = 1e18;
  for (const auto& c : clusters_) {
    nearest_ms = std::min(nearest_ms, topology::propagation_ms(*location, c.location));
  }
  return covered(key, world_->subnet_kind(probe) == topology::SubnetKind::kHost, nearest_ms);
}

double CdnProvider::estimate_ms(double geo_ms, std::size_t cluster_index,
                                const net::Prefix& key,
                                const topology::Host* representative) const {
  const CdnCluster& c = clusters_[cluster_index];
  // Geographic inference: distance-derived RTT, blind to routing.
  const double geo_rtt = 2.0 * geo_ms + 2.0;
  // Measurement: true routed RTT from the cluster to the subnet's
  // representative (routers answer pings; hosts are pinged directly).
  double blended = geo_rtt;
  if (representative != nullptr && !c.replicas.empty()) {
    if (const auto front = world_->endpoint_of(c.replicas.front())) {
      try {
        const double measured = 2.0 * world_->path_one_way_ms(*front, *representative);
        blended = profile_.routing_awareness * measured +
                  (1.0 - profile_.routing_awareness) * geo_rtt;
      } catch (const net::Error&) {
        // Unroutable pair: fall back to pure geography.
      }
    }
  }
  const double noise = std::exp(profile_.mapping_noise_sigma *
                                hash_normal(hash3(profile_.seed, key.network().to_uint(),
                                                  cluster_index + 17)));
  return blended * noise;
}

CdnProvider::Mapping CdnProvider::compute_mapping(const net::Prefix& key) const {
  Mapping mapping;
  const net::Prefix probe(key.network(), 24);
  const auto location = world_->subnet_location(probe);
  if (!location) return mapping;  // space the CDN cannot even geolocate
  const bool eyeball = world_->subnet_kind(probe) == topology::SubnetKind::kHost;

  // Each cluster's geographic delay, computed once: first for the coverage
  // draw, then as the estimate's geographic part.
  std::vector<std::pair<double, std::size_t>> scored(clusters_.size());
  double nearest_ms = 1e18;
  for (std::size_t i = 0; i < clusters_.size(); ++i) {
    const double geo_ms = topology::propagation_ms(*location, clusters_[i].location);
    scored[i] = {geo_ms, i};
    nearest_ms = std::min(nearest_ms, geo_ms);
  }
  if (!covered(key, eyeball, nearest_ms)) return mapping;

  // The address the CDN pings for this key. Unmeasurable (unallocated host
  // space, say): every cluster falls back to pure geography.
  std::optional<topology::Host> representative;
  if (profile_.routing_awareness > 0.0) {
    representative =
        world_->endpoint_of(net::Ipv4Addr(probe.network().to_uint() | (eyeball ? 10u : 1u)));
  }
  for (auto& [ms, i] : scored) {
    ms = estimate_ms(ms, i, key, representative ? &*representative : nullptr);
  }
  std::sort(scored.begin(), scored.end());

  std::size_t choice = 0;
  // Persistent mapping error: with probability error_rate the key is stuck
  // on a lower-ranked cluster (geometrically distributed displacement).
  const std::uint64_t h = hash3(profile_.seed, key.network().to_uint(), 0xE44);
  if (hash01(h) < profile_.mapping_error_rate) {
    std::size_t displacement = 1;
    std::uint64_t g = mix(h);
    while (hash01(g) < 0.5 && displacement + 1 < scored.size()) {
      ++displacement;
      g = mix(g);
    }
    choice = std::min(displacement, scored.size() - 1);
  }
  mapping.persistent = static_cast<std::int16_t>(scored[choice].second);
  mapping.first = static_cast<std::uint16_t>(scored[0].second);
  mapping.second =
      static_cast<std::uint16_t>(scored.size() > 1 ? scored[1].second : scored[0].second);
  return mapping;
}

CdnProvider::Mapping CdnProvider::mapping_of(const net::Prefix& subnet) const {
  const net::Prefix key = mapping_key(subnet);
  const std::uint32_t id = key.network().to_uint();
  if (const Mapping* stored = mapping_table_->lookup(id)) return *stored;
  const Mapping mapping = compute_mapping(key);
  if (world_->is_allocated(net::Prefix(key.network(), 24))) {
    mapping_table_->insert(id, mapping);
  }
  return mapping;
}

int CdnProvider::mapped_cluster(const net::Prefix& subnet) const {
  return mapping_of(subnet).persistent;
}

std::vector<net::Ipv4Addr> CdnProvider::replica_set_from(const CdnCluster& cluster,
                                                         std::uint64_t rotation) const {
  const std::size_t n = cluster.replicas.size();
  const auto want = static_cast<std::size_t>(
      std::min<int>(profile_.replica_set_size, static_cast<int>(n)));
  std::vector<net::Ipv4Addr> out;
  out.reserve(want);
  for (std::size_t k = 0; k < want; ++k) {
    out.push_back(cluster.replicas[(rotation + k) % n]);
  }
  return out;
}

std::vector<net::Ipv4Addr> CdnProvider::select_replicas(const net::Prefix& ecs_subnet) {
  return select_with_rotation(ecs_subnet, query_counter_++);
}

std::vector<net::Ipv4Addr> CdnProvider::select_replicas(const net::Prefix& ecs_subnet,
                                                        std::uint64_t nonce) const {
  // The rotation position is a hash of the query id: consecutive queries
  // (distinct ids) still land on different rotations, but the answer no
  // longer depends on how many queries other clients issued first.
  return select_with_rotation(ecs_subnet, mix(nonce ^ profile_.seed));
}

std::vector<net::Ipv4Addr> CdnProvider::select_with_rotation(const net::Prefix& ecs_subnet,
                                                             std::uint64_t rotation) const {
  const net::Prefix key = mapping_key(ecs_subnet);

  if (profile_.anycast) {
    // Subnets are assigned a stable starting VIP; the set still rotates a
    // little per query (divergence without latency consequence).
    const std::size_t n = vips_.size();
    const std::size_t start =
        static_cast<std::size_t>(hash3(profile_.seed, key.network().to_uint(), 0xCA)) % n;
    const auto want = static_cast<std::size_t>(
        std::min<int>(profile_.replica_set_size, static_cast<int>(n)));
    std::vector<net::Ipv4Addr> out;
    for (std::size_t k = 0; k < want; ++k) {
      out.push_back(vips_[(start + k + rotation % 2) % n]);
    }
    return out;
  }

  const Mapping mapping = mapping_of(ecs_subnet);
  if (mapping.persistent < 0) {
    // Generic answer for unmapped space: any cluster, weighted by capacity,
    // different per query. This is the instability [47] observed — and the
    // risk a client takes when it assimilates a subnet the CDN never
    // measured: the next answer can come from the wrong continent.
    const std::uint64_t h = hash3(profile_.seed, key.network().to_uint(), rotation);
    double total = 0.0;
    for (const auto& c : clusters_) total += c.weight;
    double x = hash01(h) * total;
    std::size_t pick = 0;
    for (std::size_t i = 0; i < clusters_.size(); ++i) {
      x -= clusters_[i].weight;
      if (x <= 0.0) {
        pick = i;
        break;
      }
    }
    return replica_set_from(clusters_[pick], rotation);
  }

  std::size_t serve = static_cast<std::size_t>(mapping.persistent);
  // Transient load-balancing spill to the runner-up.
  const std::uint64_t spill_h =
      hash3(profile_.seed ^ 0x5B1LL, key.network().to_uint(), rotation);
  if (hash01(spill_h) < profile_.lb_spill_prob && clusters_.size() > 1) {
    serve = mapping.first == serve ? mapping.second : mapping.first;
  }
  return replica_set_from(clusters_[serve], rotation);
}

}  // namespace drongo::cdn
