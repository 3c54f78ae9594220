// Public recursive resolver (the simulated 8.8.8.8).
#pragma once

#include <bitset>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "cdn/codel.hpp"
#include "dns/serving_cache.hpp"
#include "dns/server.hpp"
#include "net/thread_counters.hpp"
#include "obs/metrics.hpp"

namespace drongo::cdn {

/// Serving-path knobs for PublicResolver: how the answer cache is sharded
/// and whether concurrent identical queries coalesce into one upstream
/// exchange. The defaults (cache off) reproduce the pristine pass-through
/// resolver every pre-serving experiment assumes.
struct ServingConfig {
  /// Master switch for the RFC 7871 scoped answer cache.
  bool enable_cache = false;
  /// Lock-striped shards for the cache (clamped to >= 1). One shard
  /// degenerates to the classic single-mutex cache.
  std::size_t shards = 1;
  /// Total cache capacity, divided evenly across shards.
  std::size_t max_entries = 4096;
  /// Singleflight: concurrent clients asking the same (qname, ECS subnet)
  /// share one upstream exchange instead of racing N identical ones.
  bool coalesce = false;
  /// Cache NXDOMAIN/NODATA answers (scope-zero, RFC 2308-style).
  bool negative_cache = true;
  /// TTL for cached negative answers.
  std::uint32_t negative_ttl_seconds = 30;
  /// CoDel-style admission control in front of the serving path: when
  /// enabled, arrivals whose virtual-queue sojourn violates the drop law
  /// are shed with SERVFAIL instead of degrading every queued query.
  CodelConfig overload{};
};

/// An ECS-forwarding public recursive resolver, modelled on Google Public
/// DNS: queries are routed to the authoritative for the longest matching
/// zone suffix; if the client supplied no ECS option, the resolver inserts
/// one with the client's /24 (the "A Faster Internet" behaviour the paper
/// builds on). Positive answers are cached per RFC 7871 scope rules with a
/// caller-advanced simulated clock; NXDOMAIN/NODATA answers are cached
/// scope-zero. With coalescing enabled, concurrent misses on the same
/// (qname, ECS subnet) elect one leader to go upstream and share its answer.
///
/// Thread-safety: zone registration, `set_time_ms`, and `set_registry` are
/// setup-phase and single-threaded. `handle` may then be called
/// concurrently — the answer cache is shard-locked internally and the
/// upstream counters are per-thread slots (net::ThreadCounters).
class PublicResolver : public dns::DnsServer {
 public:
  /// `transport` carries queries to authoritatives; borrowed.
  PublicResolver(dns::DnsTransport* transport, net::Ipv4Addr own_address,
                 const ServingConfig& serving = {});

  /// Registers the authoritative server address for a zone. Zone names
  /// compare case-insensitively: registering one again in other case
  /// replaces its server.
  void register_zone(const dns::DnsName& zone, net::Ipv4Addr authoritative);

  dns::Message handle(const dns::Message& query, net::Ipv4Addr source) override;

  /// Advances the simulated clock used for cache TTLs.
  void set_time_ms(std::uint64_t now_ms) { now_ms_ = now_ms; }

  /// Attaches an obs registry (borrowed; nullptr detaches): cache events
  /// appear as `dns.cache.*`, upstream exchanges as `cdn.resolver.*`.
  void set_registry(obs::Registry* registry) {
    registry_ = registry;
    cache_.set_registry(registry);
    admission_.set_registry(registry);
  }

  [[nodiscard]] const ServingConfig& serving() const { return serving_; }
  [[nodiscard]] const dns::ShardedDnsCache& cache() const { return cache_; }
  [[nodiscard]] dns::CacheStats cache_stats() const { return cache_.stats(); }
  /// The CoDel admission controller (inert unless serving().overload.enabled).
  [[nodiscard]] const CodelQueue& admission() const { return admission_; }
  [[nodiscard]] std::uint64_t upstream_queries() const {
    return upstream_.sum(kUpstreamQueries);
  }
  /// Upstream exchanges that failed transiently and became SERVFAIL answers.
  [[nodiscard]] std::uint64_t upstream_failures() const {
    return upstream_.sum(kUpstreamFailures);
  }

  /// The authoritative for the longest registered zone that `name` is in
  /// (the root zone, if registered, covers every name); nullopt when no
  /// registered zone covers it.
  [[nodiscard]] std::optional<net::Ipv4Addr> authoritative_for(
      const dns::DnsName& name) const;

 private:
  /// Indexes of upstream_.
  static constexpr std::size_t kUpstreamQueries = 0;
  static constexpr std::size_t kUpstreamFailures = 1;

  /// Hashes zone keys and looks them up by string_view without a copy.
  struct ZoneKeyHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view key) const noexcept {
      return std::hash<std::string_view>{}(key);
    }
  };

  /// Full recursive resolution (zone routing, CNAME chase, caching). When
  /// `flight` is non-null this caller is the singleflight leader and the
  /// shareable outcome is published for every waiting follower. When
  /// `foreign_family` the client sent an ECS family the cache cannot
  /// represent: the answer is served but never cached, and the echoed
  /// option carries scope 0.
  dns::Message resolve_upstream(const dns::Message& query, const dns::Question& q,
                                const net::IpPrefix& ecs, bool client_sent_ecs,
                                bool foreign_family,
                                dns::ShardedDnsCache::Flight* flight);

  /// Synthesizes a client response from a cache entry or flight outcome
  /// (final addresses only; CNAME chains are not replayed).
  dns::Message answer_from(const dns::Message& query, const dns::Question& q,
                           dns::Rcode rcode,
                           const std::vector<net::Ipv4Addr>& addresses,
                           int scope_length, bool client_sent_ecs) const;

  dns::DnsTransport* transport_;
  net::Ipv4Addr address_;
  ServingConfig serving_;
  std::uint64_t now_ms_ = 0;
  /// Registered zones keyed by their case-folded wire form (length-prefixed
  /// labels and the root byte), so a query name's suffixes are probed as
  /// views into one folded copy of it.
  std::unordered_map<std::string, net::Ipv4Addr, ZoneKeyHash, std::equal_to<>> zones_;
  /// Bit n is set when some registered zone has n labels: only suffixes of
  /// those lengths are probed.
  std::bitset<dns::DnsName::kMaxWireLength / 2 + 1> zone_label_counts_;
  dns::ShardedDnsCache cache_;
  CodelQueue admission_;
  obs::Registry* registry_ = nullptr;  // borrowed; optional telemetry mirror
  net::ThreadCounters<2> upstream_;  // queries, failures
};

}  // namespace drongo::cdn
