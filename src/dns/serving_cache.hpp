// Sharded, query-coalescing front for the ECS answer cache.
//
// One DnsCache behind one mutex serializes every client of a busy resolver.
// This wrapper stripes the key space over N independently locked shards
// (keyed by a deterministic FNV-1a hash of the canonical qname, so a name's
// scope family always lands in one shard and the longest-match scan stays
// local), and adds singleflight coalescing: when many clients ask for the
// same (qname, ECS subnet) at once, exactly one — the leader — performs the
// upstream exchange while the rest block until the leader publishes, then
// reuse its answer. That is the classic thundering-herd defence a
// production recursive needs the moment a hot name's TTL lapses.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dns/cache.hpp"
#include "dns/name.hpp"
#include "dns/types.hpp"
#include "net/prefix.hpp"
#include "obs/metrics.hpp"

namespace drongo::dns {

class ShardedDnsCache {
 public:
  /// What a flight's leader learned upstream, in just enough detail for a
  /// follower to synthesize its own response. `usable` is false when the
  /// leader failed before producing a shareable answer (transport error,
  /// exception): followers then resolve for themselves.
  struct FlightOutcome {
    Rcode rcode = Rcode::kServFail;
    std::vector<net::Ipv4Addr> addresses;
    int scope_length = 0;
    std::uint32_t ttl_seconds = 0;  ///< the upstream answer's minimum TTL
    bool usable = false;
  };

  /// A singleflight membership for one (qname, ECS subnet) key. Exactly one
  /// live Flight per key is the leader; the rest are followers. The leader
  /// must publish() its outcome (the destructor publishes an unusable one
  /// on early exit, so followers can never block forever).
  class Flight {
   public:
    Flight(Flight&&) noexcept = default;
    Flight& operator=(Flight&&) = delete;
    Flight(const Flight&) = delete;
    Flight& operator=(const Flight&) = delete;
    ~Flight();

    [[nodiscard]] bool leader() const { return leader_; }

    /// Follower only: blocks until the leader publishes, then returns its
    /// outcome.
    [[nodiscard]] FlightOutcome wait() const;

    /// Leader only: removes the flight from the in-flight table and wakes
    /// every follower with `outcome`.
    void publish(FlightOutcome outcome);

   private:
    friend class ShardedDnsCache;
    struct State;
    Flight(ShardedDnsCache* owner, std::size_t shard_index, std::string key,
           std::shared_ptr<State> state, bool leader)
        : owner_(owner),
          shard_index_(shard_index),
          key_(std::move(key)),
          state_(std::move(state)),
          leader_(leader) {}

    ShardedDnsCache* owner_;
    std::size_t shard_index_;
    std::string key_;
    std::shared_ptr<State> state_;
    bool leader_;
    bool published_ = false;
  };

  /// `max_entries` is the whole cache's capacity, divided evenly across
  /// `shards` (each shard gets at least one slot). `shards` is clamped to
  /// at least 1.
  explicit ShardedDnsCache(std::size_t shards = 8, std::size_t max_entries = 4096);
  ~ShardedDnsCache();

  ShardedDnsCache(const ShardedDnsCache&) = delete;
  ShardedDnsCache& operator=(const ShardedDnsCache&) = delete;

  /// DnsCache::lookup under the owning shard's lock.
  std::optional<DnsCache::Entry> lookup(const DnsName& name,
                                        const net::IpPrefix& client_subnet,
                                        std::uint64_t now_ms);

  /// DnsCache::insert under the owning shard's lock.
  void insert(const DnsName& name, const net::IpPrefix& scope,
              std::vector<net::Ipv4Addr> addresses, std::uint32_t ttl_seconds,
              std::uint64_t now_ms);

  /// DnsCache::insert_negative under the owning shard's lock.
  void insert_negative(const DnsName& name, const net::IpPrefix& scope, Rcode rcode,
                       std::uint32_t ttl_seconds, std::uint64_t now_ms);

  /// Purges expired entries in every shard.
  void purge(std::uint64_t now_ms);

  /// Tallies an uncacheable foreign-family ECS scope for `name` (see
  /// DnsCache::note_foreign_family_drop) on the shard that owns the name.
  void note_foreign_family_drop(const DnsName& name);

  /// Joins the singleflight for (name, ecs). The first caller becomes the
  /// leader and must publish(); later callers become followers and wait().
  [[nodiscard]] Flight join(const DnsName& name, const net::IpPrefix& ecs);

  /// Attaches an obs registry to every shard and to the coalescing counters
  /// (borrowed; nullptr detaches). Setup-phase only, like register_zone.
  void set_registry(obs::Registry* registry);

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }

  /// Aggregated counters over all shards plus the coalescing tallies.
  /// Takes every shard lock briefly; cheap at observation frequency.
  [[nodiscard]] CacheStats stats() const;

  /// Live entries across all shards (expired-but-unseen entries excluded
  /// only after a scan or purge passes them, as in DnsCache).
  [[nodiscard]] std::size_t size() const;

 private:
  struct Shard;

  Shard& shard_of(std::string_view canonical) const;
  std::size_t shard_index_of(std::string_view canonical) const;

  std::vector<std::unique_ptr<Shard>> shards_;
  obs::Registry* registry_ = nullptr;  // borrowed; optional telemetry mirror
};

}  // namespace drongo::dns
