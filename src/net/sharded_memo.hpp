// ShardedMemo: a concurrent memo for deterministic pure functions.
//
// The pattern behind World's one-way delay, anycast-instance,
// traceroute-skeleton and name memos and CdnProvider's mapping table: a
// fixed array of shards, each an unordered_map behind a shared_mutex,
// selected by a mixed hash of the key.
// Lookups take a shared lock on one shard, so parallel campaign workers
// only contend when they insert into the same shard. The memoized function
// must be pure: a racing miss recomputes the same value and the first
// insert wins, so callers compute outside any lock. Entries are never
// erased, so a stored value can be handed out by reference (lookup,
// insert) instead of copied.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <utility>

namespace drongo::net {

template <typename Key, typename Value>
class ShardedMemo {
 public:
  static constexpr std::size_t kShards = 16;

  /// The stored value for `key`, or nullptr on a miss.
  /// Entries are never erased and unordered_map keeps element addresses
  /// across rehashing, so the pointer is valid for the memo's lifetime.
  [[nodiscard]] const Value* lookup(const Key& key) const {
    const Shard& shard = shard_of(key);
    std::shared_lock lock(shard.mutex);
    const auto it = shard.values.find(key);
    return it == shard.values.end() ? nullptr : &it->second;
  }

  /// Stores `value` unless `key` is already present (first insert wins) and
  /// returns the stored value, valid for the memo's lifetime.
  const Value& insert(const Key& key, Value value) {
    Shard& shard = shard_of(key);
    std::unique_lock lock(shard.mutex);
    return shard.values.try_emplace(key, std::move(value)).first->second;
  }

  /// Entries stored across all shards.
  [[nodiscard]] std::size_t size() const {
    std::size_t total = 0;
    for (const Shard& shard : shards_) {
      std::shared_lock lock(shard.mutex);
      total += shard.values.size();
    }
    return total;
  }

 private:
  struct Shard {
    mutable std::shared_mutex mutex;
    std::unordered_map<Key, Value> values;
  };

  /// SplitMix64 finalizer over the key's hash: integer keys hash to
  /// themselves, and their low bits alone would pile onto few shards.
  [[nodiscard]] static std::size_t shard_index(const Key& key) {
    auto x = static_cast<std::uint64_t>(std::hash<Key>{}(key));
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ULL;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBULL;
    x ^= x >> 31;
    return static_cast<std::size_t>(x % kShards);
  }

  Shard& shard_of(const Key& key) { return shards_[shard_index(key)]; }
  const Shard& shard_of(const Key& key) const { return shards_[shard_index(key)]; }

  std::array<Shard, kShards> shards_;
};

}  // namespace drongo::net
