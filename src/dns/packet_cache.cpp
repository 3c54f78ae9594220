#include "dns/packet_cache.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <string_view>

#include "net/bytes.hpp"
#include "net/error.hpp"

namespace drongo::dns {

std::uint64_t PacketCache::default_hash(std::span<const std::uint8_t> key) {
  return std::hash<std::string_view>{}(
      std::string_view(reinterpret_cast<const char*>(key.data()), key.size()));
}

PacketCache::PacketCache(std::size_t capacity, std::uint64_t ttl_ms, HashFn hash)
    : hash_(hash),
      capacity_(std::max<std::size_t>(capacity, 1)),
      ttl_ms_(ttl_ms),
      slots_(std::bit_ceil(2 * capacity_)),
      mask_(slots_.size() - 1) {
  order_.reserve(capacity_);
}

PacketCache::~PacketCache() {
  if (arena_ != nullptr) munmap(arena_, arena_capacity_);
}

void PacketCache::make_key(std::span<const std::uint8_t> wire, bool udp,
                           std::vector<std::uint8_t>& key) {
  key.assign(wire.begin() + 2, wire.end());  // the id must not split entries
  key.push_back(udp ? 1 : 0);
}

std::size_t PacketCache::locate(std::uint64_t hash,
                                std::span<const std::uint8_t> key) const {
  for (std::size_t at = hash & mask_;; at = (at + 1) & mask_) {
    const Slot& slot = slots_[at];
    if (!occupied(slot)) return at;
    if (slot.hash == hash && slot.key_len == key.size() &&
        std::memcmp(arena_ + slot.offset, key.data(), key.size()) == 0) {
      return at;
    }
  }
}

std::span<const std::uint8_t> PacketCache::find(std::span<const std::uint8_t> key,
                                                std::uint64_t now_ms) {
  const std::size_t at = locate(hash_(key), key);
  const Slot& slot = slots_[at];
  if (!occupied(slot)) return {};
  if (now_ms - slot.stored_ms <= ttl_ms_) {
    return {arena_ + slot.offset + slot.key_len, slot.reply_len};
  }
  erase_at(at);
  return {};
}

void PacketCache::store(std::span<const std::uint8_t> key,
                        std::span<const std::uint8_t> reply, std::uint64_t now_ms) {
  if (count_ >= capacity_) flush();
  const std::size_t bytes = key.size() + reply.size();
  const std::uint32_t offset = reserve(bytes);
  net::copy_bytes(arena_ + offset, key.data(), key.size());
  net::copy_bytes(arena_ + offset + key.size(), reply.data(), reply.size());
  const std::uint64_t hash = hash_(key);
  Slot& slot = slots_[locate(hash, key)];
  if (occupied(slot)) {
    live_bytes_ -= slot.key_len + slot.reply_len;
    --count_;
  }
  slot = Slot{hash,
              now_ms,
              generation_,
              offset,
              static_cast<std::uint32_t>(key.size()),
              static_cast<std::uint32_t>(reply.size())};
  ++count_;
  live_bytes_ += bytes;
}

void PacketCache::flush() {
  if (++generation_ == 0) {
    // Wrapped after 2^32 flushes: stale generations could look current.
    for (Slot& slot : slots_) slot.generation = 0;
    generation_ = 1;
  }
  count_ = 0;
  arena_used_ = 0;
  live_bytes_ = 0;
}

void PacketCache::erase_at(std::size_t at) {
  live_bytes_ -= slots_[at].key_len + slots_[at].reply_len;
  --count_;
  // Backward-shift deletion: pull each later entry of the run into the hole
  // unless its home lies cyclically after the hole (it would then be
  // unreachable from its home).
  for (std::size_t next = (at + 1) & mask_; occupied(slots_[next]);
       next = (next + 1) & mask_) {
    const std::size_t home = slots_[next].hash & mask_;
    if (((next - home) & mask_) >= ((next - at) & mask_)) {
      slots_[at] = slots_[next];
      at = next;
    }
  }
  slots_[at].generation = 0;
}

std::uint32_t PacketCache::reserve(std::size_t bytes) {
  if (arena_used_ + bytes > arena_capacity_) {
    const std::size_t waste = arena_used_ - live_bytes_;
    if (waste > 0 && 2 * waste >= arena_used_) compact();
    if (arena_used_ + bytes > std::numeric_limits<std::uint32_t>::max()) flush();
    if (arena_used_ + bytes > arena_capacity_) {
      const std::size_t grown =
          std::max({2 * arena_capacity_, arena_used_ + bytes, std::size_t{4096}});
      void* mapped =
          mmap(nullptr, grown, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (mapped == MAP_FAILED) {
        throw net::Error(std::string("PacketCache arena mmap(): ") + std::strerror(errno));
      }
      auto* arena = static_cast<std::uint8_t*>(mapped);
      if (arena_ != nullptr) {
        if (arena_used_ > 0) std::memcpy(arena, arena_, arena_used_);
        munmap(arena_, arena_capacity_);
      }
      arena_ = arena;
      arena_capacity_ = grown;
    }
  }
  const auto offset = static_cast<std::uint32_t>(arena_used_);
  arena_used_ += bytes;
  return offset;
}

void PacketCache::compact() {
  order_.clear();
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (occupied(slots_[i])) order_.push_back(static_cast<std::uint32_t>(i));
  }
  std::sort(order_.begin(), order_.end(), [&](std::uint32_t a, std::uint32_t b) {
    return slots_[a].offset < slots_[b].offset;
  });
  // Ascending offsets: each record moves down (or stays), never over a
  // record still to be moved.
  std::size_t at = 0;
  for (const std::uint32_t i : order_) {
    Slot& slot = slots_[i];
    const std::size_t bytes = slot.key_len + slot.reply_len;
    if (slot.offset != at) std::memmove(arena_ + at, arena_ + slot.offset, bytes);
    slot.offset = static_cast<std::uint32_t>(at);
    at += bytes;
  }
  arena_used_ = at;
}

}  // namespace drongo::dns
