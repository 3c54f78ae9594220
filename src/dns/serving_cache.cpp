#include "dns/serving_cache.hpp"

#include <algorithm>
#include <utility>

namespace drongo::dns {

struct ShardedDnsCache::Flight::State {
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  FlightOutcome outcome;
};

struct ShardedDnsCache::Shard {
  explicit Shard(std::size_t max_entries) : cache(max_entries) {}

  mutable std::mutex mutex;
  DnsCache cache;
  /// Open flights keyed by "canonical-qname|ecs-prefix".
  std::map<std::string, std::shared_ptr<Flight::State>> inflight;
  std::uint64_t coalesced = 0;
  std::uint64_t coalesce_leaders = 0;
};

ShardedDnsCache::ShardedDnsCache(std::size_t shards, std::size_t max_entries) {
  const std::size_t count = std::max<std::size_t>(1, shards);
  const std::size_t per_shard = std::max<std::size_t>(1, max_entries / count);
  shards_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    shards_.push_back(std::make_unique<Shard>(per_shard));
  }
}

ShardedDnsCache::~ShardedDnsCache() = default;

std::size_t ShardedDnsCache::shard_index_of(std::string_view canonical) const {
  // FNV-1a: deterministic across runs and platforms, unlike std::hash.
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : canonical) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return static_cast<std::size_t>(h % shards_.size());
}

ShardedDnsCache::Shard& ShardedDnsCache::shard_of(std::string_view canonical) const {
  return *shards_[shard_index_of(canonical)];
}

std::optional<DnsCache::Entry> ShardedDnsCache::lookup(const DnsName& name,
                                                       const net::IpPrefix& client_subnet,
                                                       std::uint64_t now_ms) {
  // Canonicalize exactly once at the serving boundary: the same lowercase
  // form picks the shard AND keys the shard's cache, so mixed-case queries
  // can never land in (or populate) a different shard than their lowercase
  // twins. It is written on the stack: a hit builds no string.
  char buffer[DnsName::kMaxWireLength];
  const std::string_view canonical = name.canonical_into(buffer);
  Shard& shard = shard_of(canonical);
  std::lock_guard lock(shard.mutex);
  return shard.cache.lookup(canonical, client_subnet, now_ms);
}

void ShardedDnsCache::insert(const DnsName& name, const net::IpPrefix& scope,
                             std::vector<net::Ipv4Addr> addresses,
                             std::uint32_t ttl_seconds, std::uint64_t now_ms) {
  std::string canonical = name.canonical();
  Shard& shard = shard_of(canonical);
  std::lock_guard lock(shard.mutex);
  shard.cache.insert(std::move(canonical), scope, std::move(addresses), ttl_seconds,
                     now_ms);
}

void ShardedDnsCache::insert_negative(const DnsName& name, const net::IpPrefix& scope,
                                      Rcode rcode, std::uint32_t ttl_seconds,
                                      std::uint64_t now_ms) {
  std::string canonical = name.canonical();
  Shard& shard = shard_of(canonical);
  std::lock_guard lock(shard.mutex);
  shard.cache.insert_negative(std::move(canonical), scope, rcode, ttl_seconds, now_ms);
}

void ShardedDnsCache::note_foreign_family_drop(const DnsName& name) {
  // Charged to the shard that would have owned the entry, so per-shard
  // stats stay meaningful under aggregation.
  Shard& shard = shard_of(name.canonical());
  std::lock_guard lock(shard.mutex);
  shard.cache.note_foreign_family_drop();
}

void ShardedDnsCache::purge(std::uint64_t now_ms) {
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    shard->cache.purge(now_ms);
  }
}

ShardedDnsCache::Flight ShardedDnsCache::join(const DnsName& name,
                                              const net::IpPrefix& ecs) {
  const std::string canonical = name.canonical();
  const std::size_t index = shard_index_of(canonical);
  Shard& shard = *shards_[index];
  std::string key = canonical + "|" + ecs.to_string();
  std::lock_guard lock(shard.mutex);
  if (const auto it = shard.inflight.find(key); it != shard.inflight.end()) {
    ++shard.coalesced;
    if (registry_ != nullptr) registry_->add("dns.cache.coalesced");
    return Flight(this, index, std::move(key), it->second, /*leader=*/false);
  }
  auto state = std::make_shared<Flight::State>();
  shard.inflight.emplace(key, state);
  ++shard.coalesce_leaders;
  if (registry_ != nullptr) registry_->add("dns.cache.coalesce_leaders");
  return Flight(this, index, std::move(key), std::move(state), /*leader=*/true);
}

void ShardedDnsCache::set_registry(obs::Registry* registry) {
  registry_ = registry;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    shard->cache.set_registry(registry);
  }
}

CacheStats ShardedDnsCache::stats() const {
  CacheStats total;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    total += shard->cache.stats();
    total.coalesced += shard->coalesced;
    total.coalesce_leaders += shard->coalesce_leaders;
  }
  return total;
}

std::size_t ShardedDnsCache::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    total += shard->cache.size();
  }
  return total;
}

ShardedDnsCache::Flight::~Flight() {
  // A leader that never published (upstream threw, early return) must not
  // strand its followers: resolve the flight with an unusable outcome so
  // each follower falls back to its own upstream exchange.
  if (leader_ && !published_ && state_ != nullptr) publish(FlightOutcome{});
}

ShardedDnsCache::FlightOutcome ShardedDnsCache::Flight::wait() const {
  std::unique_lock lock(state_->mutex);
  state_->cv.wait(lock, [&] { return state_->done; });
  return state_->outcome;
}

void ShardedDnsCache::Flight::publish(FlightOutcome outcome) {
  published_ = true;
  {
    Shard& shard = *owner_->shards_[shard_index_];
    std::lock_guard lock(shard.mutex);
    shard.inflight.erase(key_);
  }
  {
    std::lock_guard lock(state_->mutex);
    state_->outcome = std::move(outcome);
    state_->done = true;
  }
  state_->cv.notify_all();
}

}  // namespace drongo::dns
