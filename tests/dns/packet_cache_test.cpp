// The daemon's flat packet cache against a reference model of the policy it
// replaced: an unordered_map from the query wire (id zeroed, plus a
// protocol byte) to the reply and its store time, cleared when a store
// finds it full, with an expired entry erased by the probe that finds it.
// Random streams of (wire, udp/tcp, now, cacheable) operations must give
// the same hit/miss sequence and the same reply bytes on both, through
// capacity flushes and TTL expiry, UDP and TCP keys for one wire, wires
// that differ only in their id, and hashes that force every key into one
// probe run wrapping around the end of the table.
#include "dns/packet_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/rng.hpp"

namespace drongo::dns {
namespace {

/// The policy before the flat cache, kept as the oracle.
class ReferenceCache {
 public:
  ReferenceCache(std::size_t capacity, std::uint64_t ttl_ms)
      : capacity_(capacity), ttl_ms_(ttl_ms) {}

  static std::string key_of(const std::vector<std::uint8_t>& wire, bool udp) {
    std::string key(wire.begin(), wire.end());
    key[0] = key[1] = '\0';
    key.push_back(udp ? '\1' : '\0');
    return key;
  }

  std::optional<std::vector<std::uint8_t>> find(const std::string& key, std::uint64_t now_ms) {
    const auto it = map_.find(key);
    if (it == map_.end()) return std::nullopt;
    if (now_ms - it->second.stored_ms <= ttl_ms_) return it->second.wire;
    map_.erase(it);
    return std::nullopt;
  }

  void store(const std::string& key, const std::vector<std::uint8_t>& reply,
             std::uint64_t now_ms) {
    if (map_.size() >= capacity_) map_.clear();
    map_.emplace(key, Entry{reply, now_ms});
  }

  [[nodiscard]] std::size_t size() const { return map_.size(); }

 private:
  struct Entry {
    std::vector<std::uint8_t> wire;
    std::uint64_t stored_ms = 0;
  };
  std::size_t capacity_;
  std::uint64_t ttl_ms_;
  std::unordered_map<std::string, Entry> map_;
};

/// `count` query-like wires: a 12-byte header and a body of random length
/// and bytes. Every third wire repeats an earlier one with another id.
std::vector<std::vector<std::uint8_t>> make_wires(net::Rng& rng, std::size_t count) {
  std::vector<std::vector<std::uint8_t>> wires;
  for (std::size_t i = 0; i < count; ++i) {
    if (i % 3 == 2) {
      auto twin = wires[rng.uniform(wires.size())];
      twin[0] = static_cast<std::uint8_t>(twin[0] + 1 + rng.uniform(200));
      wires.push_back(std::move(twin));
      continue;
    }
    std::vector<std::uint8_t> wire(12 + rng.uniform(60));
    for (auto& byte : wire) byte = static_cast<std::uint8_t>(rng.uniform(256));
    wires.push_back(std::move(wire));
  }
  return wires;
}

struct StreamShape {
  std::size_t capacity;
  std::uint64_t ttl_ms;
  std::size_t wires;
  std::size_t operations;
};

/// Drives both caches with one random stream; counts the hits in `*hits`.
void expect_same_as_reference(std::uint64_t seed, const StreamShape& shape,
                              PacketCache::HashFn hash, std::size_t* hits) {
  net::Rng rng(seed);
  const auto wires = make_wires(rng, shape.wires);
  PacketCache cache(shape.capacity, shape.ttl_ms, hash);
  ReferenceCache reference(shape.capacity, shape.ttl_ms);
  std::vector<std::uint8_t> key;
  std::uint64_t now = 1'000;
  *hits = 0;
  for (std::size_t op = 0; op < shape.operations; ++op) {
    const auto& wire = wires[rng.uniform(wires.size())];
    const bool udp = rng.uniform(2) == 0;
    const bool cacheable = rng.uniform(8) != 0;
    now += rng.uniform(shape.ttl_ms / 4 + 2);
    PacketCache::make_key(wire, udp, key);
    const std::string reference_key = ReferenceCache::key_of(wire, udp);
    const auto got = cache.find(key, now);
    const auto want = reference.find(reference_key, now);
    const std::string where = "seed " + std::to_string(seed) + " op " + std::to_string(op);
    ASSERT_EQ(!got.empty(), want.has_value()) << where;
    if (want) {
      ASSERT_EQ(std::vector<std::uint8_t>(got.begin(), got.end()), *want) << where;
      ++*hits;
    } else if (cacheable) {
      // A reply of its own length and bytes, like a fresh encode.
      std::vector<std::uint8_t> reply(12 + rng.uniform(400));
      for (auto& byte : reply) byte = static_cast<std::uint8_t>(rng.uniform(256));
      cache.store(key, reply, now);
      reference.store(reference_key, reply, now);
    }
    ASSERT_EQ(cache.size(), reference.size()) << where;
  }
}

std::uint64_t one_home(std::span<const std::uint8_t>) { return ~std::uint64_t{0}; }

std::uint64_t two_homes(std::span<const std::uint8_t> key) {
  // Both homes sit near the end of any table, so runs wrap to slot 0.
  return key.empty() || key[key.size() / 2] % 2 == 0 ? ~std::uint64_t{0}
                                                     : ~std::uint64_t{0} - 2;
}

TEST(PacketCacheTest, RandomStreamsMatchTheReferencePolicy) {
  const StreamShape shapes[] = {
      {1, 40, 6, 3'000},    // every store flushes the one entry
      {8, 40, 24, 6'000},   // flushes and expiry both frequent
      {64, 200, 90, 8'000}, // mostly hits between flushes
      {16, 5, 30, 6'000},   // nearly every entry expires before reuse
  };
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (const auto& shape : shapes) {
      std::size_t hits = 0;
      expect_same_as_reference(seed, shape, PacketCache::default_hash, &hits);
      if (HasFatalFailure()) return;
      EXPECT_GT(hits, 0u) << "seed " << seed << ": the stream never hit";
    }
  }
}

TEST(PacketCacheTest, ForcedCollisionsWrapAroundTheTable) {
  // Every key hashes to the last slot (or to one of two slots near it):
  // each probe and each backward shift on erase walks one run that wraps
  // from the end of the table to its start.
  const StreamShape shapes[] = {{4, 40, 16, 4'000}, {8, 20, 30, 6'000}};
  for (std::uint64_t seed = 11; seed <= 14; ++seed) {
    for (const auto& shape : shapes) {
      for (const auto hash : {one_home, two_homes}) {
        std::size_t hits = 0;
        expect_same_as_reference(seed, shape, hash, &hits);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(PacketCacheTest, UdpAndTcpKeysOfOneWireAreDistinctAndTheIdIsIgnored) {
  PacketCache cache(8, 1'000);
  std::vector<std::uint8_t> wire(20, 7);
  std::vector<std::uint8_t> key;
  PacketCache::make_key(wire, /*udp=*/true, key);
  cache.store(key, std::vector<std::uint8_t>{1, 2, 3}, 0);
  PacketCache::make_key(wire, /*udp=*/false, key);
  EXPECT_TRUE(cache.find(key, 0).empty());
  wire[0] = 99;  // another id
  PacketCache::make_key(wire, /*udp=*/true, key);
  const auto hit = cache.find(key, 0);
  EXPECT_EQ(std::vector<std::uint8_t>(hit.begin(), hit.end()),
            (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST(PacketCacheTest, FlushDropsTheGenerationAndKeepsTheArena) {
  PacketCache cache(4, 1'000);
  std::vector<std::uint8_t> key;
  const std::vector<std::uint8_t> reply(100, 5);
  for (std::uint8_t i = 0; i < 4; ++i) {
    PacketCache::make_key(std::vector<std::uint8_t>(12, i), true, key);
    cache.store(key, reply, 0);
  }
  EXPECT_EQ(cache.size(), 4u);
  const std::size_t arena = cache.arena_capacity();
  // The fifth store finds the cache full: the generation goes, and only the
  // new entry is left, in the same arena.
  PacketCache::make_key(std::vector<std::uint8_t>(12, 9), true, key);
  cache.store(key, reply, 0);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.arena_capacity(), arena);
  PacketCache::make_key(std::vector<std::uint8_t>(12, 0), true, key);
  EXPECT_TRUE(cache.find(key, 0).empty());
  PacketCache::make_key(std::vector<std::uint8_t>(12, 9), true, key);
  EXPECT_FALSE(cache.find(key, 0).empty());
}

TEST(PacketCacheTest, ArenaStaysBoundedWhenEntriesExpireBelowCapacity) {
  // A hot working set far below capacity, every entry expiring and being
  // re-stored each round (with a reply that changes length), never reaches
  // the flush: the arena must be reclaimed some other way.
  constexpr std::size_t kEntries = 288;
  constexpr std::uint64_t kTtlMs = 1'000;
  PacketCache cache(8192, kTtlMs);
  std::vector<std::uint8_t> key;
  std::size_t max_live = 0;
  std::uint64_t now = 0;
  for (std::size_t round = 0; round < 2'000; ++round, now += kTtlMs + 1) {
    for (std::size_t e = 0; e < kEntries; ++e) {
      std::vector<std::uint8_t> wire(40, static_cast<std::uint8_t>(e));
      wire[12] = static_cast<std::uint8_t>(e >> 8);
      PacketCache::make_key(wire, true, key);
      ASSERT_TRUE(cache.find(key, now).empty());
      cache.store(key, std::vector<std::uint8_t>(100 + (round + e) % 50, 1), now);
    }
    ASSERT_EQ(cache.size(), kEntries);
    max_live = std::max(max_live, cache.live_bytes());
  }
  EXPECT_LE(cache.arena_capacity(), 4 * max_live + 4096);
}

}  // namespace
}  // namespace drongo::dns
