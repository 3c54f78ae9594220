#include "dns/cache.hpp"

#include <utility>

namespace drongo::dns {

void DnsCache::bump(std::uint64_t CacheStats::* field, const char* name) {
  ++(stats_.*field);
  if (registry_ != nullptr) registry_->add(obs::counter_name("dns.cache.", name));
}

void DnsCache::bump_lpm(std::uint64_t LpmStats::* field, const char* name,
                        std::uint64_t delta) {
  stats_.lpm.*field += delta;
  if (registry_ != nullptr && delta != 0) {
    registry_->add(obs::counter_name("dns.lpm.", name), delta);
  }
}

/// Bumps `field` and mirrors it into the registry under the same name.
#define DRONGO_CACHE_BUMP(field) bump(&CacheStats::field, #field)
#define DRONGO_LPM_BUMP(field, ...) bump_lpm(&LpmStats::field, #field, ##__VA_ARGS__)

void DnsCache::erase_from_trie(const std::string& canonical_qname,
                               const net::IpPrefix& scope) {
  const auto it = names_.find(canonical_qname);
  it->second.erase(scope);
  DRONGO_LPM_BUMP(erases);
  if (it->second.empty()) names_.erase(it);
  --size_;
}

std::optional<DnsCache::Entry> DnsCache::lookup(std::string_view canonical_qname,
                                                const net::IpPrefix& client_subnet,
                                                std::uint64_t now_ms) {
  const auto nit = names_.find(canonical_qname);
  if (nit == names_.end()) {
    DRONGO_CACHE_BUMP(misses);
    return std::nullopt;
  }
  // One radix descent along the client subnet's bit path yields every cached
  // scope containing it, most specific first — the RFC 7871 §7.3.1 candidate
  // order, so the first live entry is the answer and a scope-zero answer can
  // never shadow a tailored one. Dead entries on the path are erased in
  // passing so they stop counting toward size() and eviction pressure; the
  // trie itself is dropped only after the walk, which reads its scratch.
  ScopeTrie& trie = nit->second;
  std::optional<Entry> found;
  std::uint64_t visited = 0;
  trie.visit_chain(
      client_subnet.network(), client_subnet.length(),
      [&](const net::IpPrefix& scope, Stored& stored) {
        if (stored.entry.expiry_ms <= now_ms) {
          DRONGO_CACHE_BUMP(expired);
          lru_.erase(stored.lru_position);
          trie.erase(scope);
          DRONGO_LPM_BUMP(erases);
          --size_;
          return false;
        }
        lru_.splice(lru_.begin(), lru_, stored.lru_position);
        if (stored.entry.negative) {
          DRONGO_CACHE_BUMP(negative_hits);
        } else {
          DRONGO_CACHE_BUMP(hits);
        }
        found = stored.entry;
        return true;
      },
      &visited);
  DRONGO_LPM_BUMP(lookups);
  DRONGO_LPM_BUMP(node_visits, visited);
  if (trie.empty()) names_.erase(nit);
  if (!found) DRONGO_CACHE_BUMP(misses);
  return found;
}

void DnsCache::store(Key key, Entry entry, std::uint64_t now_ms) {
  if (const auto nit = names_.find(key.first); nit != names_.end()) {
    if (Stored* existing = nit->second.find(key.second); existing != nullptr) {
      // Refresh in place: newer answer wins, recency bumps.
      existing->entry = std::move(entry);
      lru_.splice(lru_.begin(), lru_, existing->lru_position);
      return;
    }
  }
  if (size_ >= max_entries_) purge(now_ms);
  while (size_ >= max_entries_ && !lru_.empty()) {
    // Still full after dropping the dead: evict the least recently used.
    DRONGO_CACHE_BUMP(evictions);
    const Key victim = lru_.back();
    lru_.pop_back();
    erase_from_trie(victim.first, victim.second);
  }
  // (Re-)resolve the trie only now: purge/evict above may have erased this
  // qname's (momentarily empty) trie from the map.
  ScopeTrie& trie = names_[key.first];
  lru_.push_front(key);
  trie.insert(key.second, Stored{std::move(entry), lru_.begin()});
  DRONGO_LPM_BUMP(inserts);
  ++size_;
}

void DnsCache::insert(std::string canonical_qname, const net::IpPrefix& scope,
                      std::vector<net::Ipv4Addr> addresses, std::uint32_t ttl_seconds,
                      std::uint64_t now_ms) {
  Entry e;
  e.addresses = std::move(addresses);
  e.scope = scope;
  e.expiry_ms = now_ms + std::uint64_t{ttl_seconds} * 1000;
  DRONGO_CACHE_BUMP(inserts);
  store({std::move(canonical_qname), scope}, std::move(e), now_ms);
}

void DnsCache::insert_negative(std::string canonical_qname, const net::IpPrefix& scope,
                               Rcode rcode, std::uint32_t ttl_seconds,
                               std::uint64_t now_ms) {
  Entry e;
  e.scope = scope;
  e.expiry_ms = now_ms + std::uint64_t{ttl_seconds} * 1000;
  e.negative = true;
  e.rcode = rcode;
  DRONGO_CACHE_BUMP(negative_inserts);
  store({std::move(canonical_qname), scope}, std::move(e), now_ms);
}

void DnsCache::note_foreign_family_drop() {
  DRONGO_CACHE_BUMP(foreign_family_drops);
}

void DnsCache::purge(std::uint64_t now_ms) {
  for (auto nit = names_.begin(); nit != names_.end();) {
    // Collect-then-erase: walk() iterates the trie, so erasing mid-walk is
    // off the table; the lru iterator is snapshotted alongside.
    std::vector<std::pair<net::IpPrefix, std::list<Key>::iterator>> dead;
    nit->second.walk([&](const net::IpPrefix& scope, const Stored& stored) {
      if (stored.entry.expiry_ms <= now_ms) dead.emplace_back(scope, stored.lru_position);
    });
    for (const auto& [scope, lru_position] : dead) {
      DRONGO_CACHE_BUMP(expired);
      DRONGO_LPM_BUMP(erases);
      lru_.erase(lru_position);
      nit->second.erase(scope);
      --size_;
    }
    if (nit->second.empty()) {
      nit = names_.erase(nit);
    } else {
      ++nit;
    }
  }
}

#undef DRONGO_LPM_BUMP
#undef DRONGO_CACHE_BUMP

}  // namespace drongo::dns
