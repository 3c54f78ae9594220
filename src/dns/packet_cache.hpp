// The serving daemon's whole-packet cache: one per listener thread.
//
// A key is a plain byte string (make_key() builds the daemon's: the query
// wire without its id, then one protocol byte); the value is the final
// reply wire. Entries live in two flat buffers:
//
//   slots   an open-addressed table (linear probing, a power of two of at
//           least twice the capacity) of {hash, stored_ms, generation,
//           offset, key length, reply length};
//   arena   one byte buffer holding each entry's key followed by its reply,
//           at the slot's offset.
//
// A slot is occupied only while its generation equals the cache's, so the
// flush at capacity is "bump the generation, rewind the arena": O(1), and it
// frees nothing. Once the arena's capacity has settled, a store is a copy
// into it and allocates nothing.
//
// The policy is the one the daemon always had: a hit is an entry stored at
// most ttl_ms ago; an expired entry found by a probe is erased (so it stops
// counting toward capacity) and the probe misses; a store into a full cache
// flushes the whole generation first. Erasing shifts the rest of the probe
// run back (no tombstones), and the erased record's bytes become waste in
// the arena. When the arena runs out of room with at least half of it
// waste, the live records are slid down over it instead of growing the
// buffer, so an arena whose working set never reaches capacity (a few
// hundred hot entries re-stored every TTL) stays within a small multiple of
// its live bytes. The arena is an anonymous mapping of its own, not a heap
// block: its pages cost memory only once written, and when it grows the
// old mapping goes straight back to the kernel instead of staying resident
// as a hole in the listener's malloc arena.
//
// Single-threaded by design: each listener owns one, so no locks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace drongo::dns {

class PacketCache {
 public:
  /// Hashes a key; replaceable so tests can force slot collisions.
  using HashFn = std::uint64_t (*)(std::span<const std::uint8_t> key);

  /// The default hash (std::hash over the key's bytes).
  static std::uint64_t default_hash(std::span<const std::uint8_t> key);

  /// Holds up to `capacity` entries (at least 1), each served for `ttl_ms`
  /// after it was stored.
  PacketCache(std::size_t capacity, std::uint64_t ttl_ms, HashFn hash = default_hash);

  ~PacketCache();
  PacketCache(const PacketCache&) = delete;
  PacketCache& operator=(const PacketCache&) = delete;

  /// The daemon's key for a query, written into `key` (its capacity is
  /// reused): the wire without its 2-byte id, then one protocol byte (1 for
  /// UDP, whose reply is post-truncation, 0 for TCP). `wire` holds at least
  /// the 12-byte header.
  static void make_key(std::span<const std::uint8_t> wire, bool udp,
                       std::vector<std::uint8_t>& key);

  /// The reply stored under `key` if it was stored within ttl_ms of
  /// `now_ms`; empty on a miss. An expired entry is erased. The view is
  /// valid until the next store() or flush().
  [[nodiscard]] std::span<const std::uint8_t> find(std::span<const std::uint8_t> key,
                                                   std::uint64_t now_ms);

  /// Stores `reply` under `key` as of `now_ms`, flushing the generation
  /// first when the cache is full. A key already present is replaced (the
  /// daemon stores only after a miss, so it never is).
  void store(std::span<const std::uint8_t> key, std::span<const std::uint8_t> reply,
             std::uint64_t now_ms);

  /// Drops every entry: O(1), frees nothing.
  void flush();

  /// Live entries (expired ones count until a probe erases them).
  [[nodiscard]] std::size_t size() const { return count_; }
  /// Bytes the arena holds allocated (live records, waste and free room).
  [[nodiscard]] std::size_t arena_capacity() const { return arena_capacity_; }
  /// Key and reply bytes of the live entries.
  [[nodiscard]] std::size_t live_bytes() const { return live_bytes_; }

 private:
  struct Slot {
    std::uint64_t hash = 0;
    std::uint64_t stored_ms = 0;
    std::uint32_t generation = 0;  ///< occupied iff == generation_
    std::uint32_t offset = 0;      ///< key bytes, then reply bytes, in arena_
    std::uint32_t key_len = 0;
    std::uint32_t reply_len = 0;
  };

  [[nodiscard]] bool occupied(const Slot& slot) const { return slot.generation == generation_; }
  /// The slot holding `key`, or the empty slot that ends its probe run.
  [[nodiscard]] std::size_t locate(std::uint64_t hash, std::span<const std::uint8_t> key) const;
  /// Empties slot `at` and shifts the rest of its probe run back.
  void erase_at(std::size_t at);
  /// Arena room for `bytes` more bytes: slides the live records down over
  /// the waste, or grows the mapping.
  std::uint32_t reserve(std::size_t bytes);
  void compact();

  HashFn hash_;
  std::size_t capacity_;
  std::uint64_t ttl_ms_;
  std::vector<Slot> slots_;
  std::size_t mask_;
  std::uint32_t generation_ = 1;
  std::size_t count_ = 0;
  std::uint8_t* arena_ = nullptr;  // mmap'd, arena_capacity_ bytes
  std::size_t arena_capacity_ = 0;
  std::size_t arena_used_ = 0;
  std::size_t live_bytes_ = 0;
  std::vector<std::uint32_t> order_;  // compact()'s scratch, capacity_ reserved
};

}  // namespace drongo::dns
