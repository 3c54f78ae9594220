// ECS-aware DNS answer cache.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "dns/name.hpp"
#include "dns/types.hpp"
#include "net/ip.hpp"
#include "net/ipaddr.hpp"
#include "net/lpm.hpp"
#include "net/prefix.hpp"
#include "obs/metrics.hpp"
#include "obs/schema.hpp"

namespace drongo::dns {

/// Counters for the radix LPM scope index, generated from the shared
/// X-macro schema and mirrored as `dns.lpm.<field>`.
struct LpmStats {
  DRONGO_OBS_LPM_COUNTERS(DRONGO_OBS_DECLARE_FIELD)

  LpmStats& operator+=(const LpmStats& other) {
#define DRONGO_LPM_FOLD(field) field += other.field;
    DRONGO_OBS_LPM_COUNTERS(DRONGO_LPM_FOLD)
#undef DRONGO_LPM_FOLD
    return *this;
  }
};

/// Per-cache counter block generated from the shared X-macro schema
/// (src/obs/schema.hpp), so the struct fields, the shard aggregation, and
/// the `dns.cache.*` registry mirror can never drift apart. The embedded
/// `lpm` block rides along through the same operator+= fold, so the sharded
/// wrapper aggregates it for free.
struct CacheStats {
  DRONGO_OBS_CACHE_COUNTERS(DRONGO_OBS_DECLARE_FIELD)
  LpmStats lpm;

  CacheStats& operator+=(const CacheStats& other) {
#define DRONGO_CACHE_FOLD(field) field += other.field;
    DRONGO_OBS_CACHE_COUNTERS(DRONGO_CACHE_FOLD)
#undef DRONGO_CACHE_FOLD
    lpm += other.lpm;
    return *this;
  }
};

/// An answer cache keyed by (qname, ECS scope network), per the RFC 7871
/// §7.3.1 rule that answers tailored to a subnet may only be reused for
/// queries whose address falls inside the returned SCOPE prefix — and when
/// several cached scopes contain the client, the *longest* (most specific)
/// match wins, so a scope-zero answer can never shadow a tailored one.
///
/// Entries may be negative (NXDOMAIN / NODATA, empty address set, the rcode
/// preserved) and are evicted strictly least-recently-used when the cache is
/// full. Expired entries are erased as lookups walk over them, so `size()`
/// counts live entries only.
///
/// Scope matching is a radix LPM trie per qname (net::IpLpmTrie): a lookup
/// descends the client subnet's bit path once, collecting the containment
/// chain of cached scopes longest-first, so cost is O(prefix bits) in the
/// number of cached scopes for the name — not a linear scan. Expired chain
/// entries are erased as the descent passes over them; entries for the name
/// that don't lie on the client's bit path die at purge()/insert pressure
/// instead (they were never scanned, so there is nothing to walk over).
///
/// Qnames are canonicalized (DNS names are case-insensitive, RFC 1035) once
/// at the cache boundary: the DnsName overloads derive the canonical form,
/// and the string overloads accept a form the caller already canonicalized
/// — e.g. the sharded wrapper, which needs it for shard selection anyway —
/// so `Example.COM` and `example.com` share one entry without recomputing.
///
/// Time is injected by the caller (simulated milliseconds) so cache
/// behaviour is deterministic and testable. Not internally synchronized:
/// callers (the shard wrapper, or single-threaded tests) provide locking.
class DnsCache {
 public:
  struct Entry {
    std::vector<net::Ipv4Addr> addresses;
    net::IpPrefix scope;            ///< scope prefix the server returned.
    std::uint64_t expiry_ms = 0;
    bool negative = false;          ///< NXDOMAIN/NODATA marker (addresses empty)
    Rcode rcode = Rcode::kNoError;  ///< kNxDomain, or kNoError for NODATA
  };

  explicit DnsCache(std::size_t max_entries = 4096) : max_entries_(max_entries) {}

  /// Looks up the most specific answer usable for `client_subnet` at time
  /// `now_ms`. Entries whose `expiry_ms <= now_ms` are dead: they miss (an
  /// entry expiring exactly now is already unusable) and are erased as the
  /// descent passes over them.
  std::optional<Entry> lookup(const DnsName& name, const net::IpPrefix& client_subnet,
                              std::uint64_t now_ms) {
    return lookup(name.canonical(), client_subnet, now_ms);
  }
  /// As above for a qname already in DnsName::canonical() form (lowercase
  /// dotted); the boundary entry point for callers that canonicalize once.
  std::optional<Entry> lookup(const std::string& canonical_qname,
                              const net::IpPrefix& client_subnet, std::uint64_t now_ms);

  /// Inserts a positive answer with the server-provided scope and TTL.
  void insert(const DnsName& name, const net::IpPrefix& scope,
              std::vector<net::Ipv4Addr> addresses, std::uint32_t ttl_seconds,
              std::uint64_t now_ms) {
    insert(name.canonical(), scope, std::move(addresses), ttl_seconds, now_ms);
  }
  void insert(std::string canonical_qname, const net::IpPrefix& scope,
              std::vector<net::Ipv4Addr> addresses, std::uint32_t ttl_seconds,
              std::uint64_t now_ms);

  /// Inserts a negative answer (NXDOMAIN, or NODATA via kNoError) under
  /// `scope` with its own TTL.
  void insert_negative(const DnsName& name, const net::IpPrefix& scope, Rcode rcode,
                       std::uint32_t ttl_seconds, std::uint64_t now_ms) {
    insert_negative(name.canonical(), scope, rcode, ttl_seconds, now_ms);
  }
  void insert_negative(std::string canonical_qname, const net::IpPrefix& scope,
                       Rcode rcode, std::uint32_t ttl_seconds, std::uint64_t now_ms);

  /// Drops expired entries (also invoked opportunistically on insert).
  void purge(std::uint64_t now_ms);

  /// Tallies an ECS scope the cache cannot represent (a family other than
  /// IPv4/IPv6): the resolver bypasses the cache for such queries instead
  /// of mis-filing the tailored answer under a generic v4 scope.
  void note_foreign_family_drop();

  /// Attaches an obs registry (borrowed; nullptr detaches): every stats_
  /// bump is mirrored as a `dns.cache.<field>` counter.
  void set_registry(obs::Registry* registry) { registry_ = registry; }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] const CacheStats& stats() const { return stats_; }
  [[nodiscard]] std::uint64_t hits() const { return stats_.hits + stats_.negative_hits; }
  [[nodiscard]] std::uint64_t misses() const { return stats_.misses; }

 private:
  using Key = std::pair<std::string, net::IpPrefix>;  // canonical name + scope net

  struct Stored {
    Entry entry;
    /// Position in lru_ (most-recent at front), spliced on every touch.
    std::list<Key>::iterator lru_position;
  };
  /// One radix trie of cached scopes per canonical qname.
  using ScopeTrie = net::IpLpmTrie<Stored>;

  void store(Key key, Entry entry, std::uint64_t now_ms);
  /// Removes (name, scope) from its trie (erasing the trie when it empties)
  /// and decrements size_. The caller has already unlinked the lru node.
  void erase_from_trie(const std::string& canonical_qname, const net::IpPrefix& scope);
  void bump(std::uint64_t CacheStats::* field, const char* name);
  void bump_lpm(std::uint64_t LpmStats::* field, const char* name, std::uint64_t delta = 1);

  std::map<std::string, ScopeTrie> names_;
  std::size_t size_ = 0;  ///< live entries across all tries
  std::list<Key> lru_;    ///< recency order: front = most recently used
  std::size_t max_entries_;
  CacheStats stats_;
  obs::Registry* registry_ = nullptr;  // borrowed; optional telemetry mirror
};

}  // namespace drongo::dns
