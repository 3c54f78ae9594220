// ThreadCounters: event counters that parallel workers bump without sharing
// a cache line.
//
// A plain std::atomic tally bumped by every simulated DNS exchange makes the
// campaign workers pass its cache line back and forth on every increment.
// Here each thread adds into its own cache-line-padded slot, and a read sums
// the slots, so totals stay exact while the hot path touches only memory
// its own core owns.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace drongo::net {

/// The calling thread's counter slot in [0, slots), dealt round robin on the
/// thread's first call, so threads started one after another get distinct
/// slots until the count wraps.
inline std::size_t thread_counter_slot(std::size_t slots) {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t ordinal = next.fetch_add(1, std::memory_order_relaxed);
  return ordinal % slots;
}

/// `N` independent counters, each split across kSlots per-thread slots.
///
/// A thread is given a slot on its first bump, round robin, so up to kSlots
/// live threads never share one; past that, threads share slots, which
/// costs contention but never counts (slots are relaxed atomics). A read
/// sums a counter's slots: it is exact once the bumps it should see have
/// happened-before it (a joined worker, a finished request), and otherwise
/// a snapshot like a relaxed atomic load.
template <std::size_t N>
class ThreadCounters {
 public:
  static constexpr std::size_t kSlots = 16;

  /// Adds one to counter `index` (< N) in the calling thread's slot.
  void add(std::size_t index = 0) {
    slots_[thread_counter_slot(kSlots)].values[index].fetch_add(1, std::memory_order_relaxed);
  }

  /// The total of counter `index` across every slot.
  [[nodiscard]] std::uint64_t sum(std::size_t index = 0) const {
    std::uint64_t total = 0;
    for (const Slot& slot : slots_) total += slot.values[index].load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct alignas(64) Slot {
    std::array<std::atomic<std::uint64_t>, N> values{};
  };

  std::array<Slot, kSlots> slots_{};
};

/// One counter.
using ThreadCounter = ThreadCounters<1>;

}  // namespace drongo::net
