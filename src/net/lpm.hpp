// Longest-prefix-match radix (Patricia) trie over IP prefixes, dual stack.
//
// The unit of "subnet" throughout drongo is net::Prefix (and, since the
// dual-stack work, net::IpPrefix); everything that has to answer "which
// stored subnet covers this address, most specifically?" — RFC 7871 §7.3.1
// scope matching in the DNS answer cache, the crowd-shared valley knowledge
// base — was a linear scan before this index existed. The trie answers
// exact-match, longest-match, and the full containment chain of an address
// in O(prefix bits) node visits with path compression, so a 10k-scope table
// costs ~a dozen comparisons instead of 10k.
//
// Layering: this lives in net/ (below dns/ and core/), so it carries no obs
// dependency. Callers that want `dns.lpm.*`-style telemetry read the visit
// counts the calls return and mirror them into their own registries.
//
// Structure: `detail::LpmCore` (lpm.cpp) implements the bit-level radix
// machinery over 128-bit keys (v4 keys are left-aligned in the top 32 bits,
// which preserves the v4 walk order bit-for-bit) and opaque value slots;
// `IpLpmTrie<T>` is the typed wrapper, holding one core per family so a v6
// scope can never answer for a v4 client. Not internally synchronized —
// callers provide locking, exactly like DnsCache.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "net/error.hpp"
#include "net/ip.hpp"
#include "net/ip6.hpp"
#include "net/ipaddr.hpp"
#include "net/prefix.hpp"

namespace drongo::net {

namespace detail {

/// A 128-bit radix key: the big-endian address bits, MSB first.
struct LpmBits {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend constexpr bool operator==(const LpmBits&, const LpmBits&) = default;

  static constexpr LpmBits from_v4(std::uint32_t bits) {
    return {std::uint64_t{bits} << 32, 0};
  }
  static constexpr LpmBits from_v6(const Ipv6Addr& addr) {
    return {addr.hi(), addr.lo()};
  }
  [[nodiscard]] constexpr std::uint32_t to_v4() const {
    return static_cast<std::uint32_t>(hi >> 32);
  }
  [[nodiscard]] constexpr Ipv6Addr to_v6() const { return {hi, lo}; }
};

/// The untyped radix core: prefixes (network bits + length 0..128) mapped to
/// 32-bit value slots managed by the typed wrapper. Nodes live in one
/// contiguous pool with free-list reuse; erased paths are pruned and
/// re-compressed so the node count stays proportional to the live prefix
/// count.
class LpmCore {
 public:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
  static constexpr int kMaxBits = 128;

  struct Match {
    LpmBits bits;
    int length = 0;
    std::uint32_t slot = kNoSlot;
  };

  LpmCore() = default;

  /// Finds the slot bound to exactly (bits, length); kNoSlot when absent.
  /// Adds the nodes visited to `*visited` when non-null.
  [[nodiscard]] std::uint32_t find(LpmBits bits, int length,
                                   std::uint64_t* visited = nullptr) const;

  /// Binds (bits, length) to `slot`. Returns kNoSlot when the prefix was
  /// newly inserted, else the previously bound slot (unchanged — the caller
  /// decides whether to overwrite the value in place via find()).
  std::uint32_t insert(LpmBits bits, int length, std::uint32_t slot);

  /// Unbinds (bits, length); returns the freed slot, or kNoSlot if absent.
  std::uint32_t erase(LpmBits bits, int length);

  /// The longest stored prefix containing `bits` whose length is at most
  /// `max_length`. Adds nodes visited to `*visited` when non-null.
  [[nodiscard]] std::optional<Match> longest_match(
      LpmBits bits, int max_length, std::uint64_t* visited = nullptr) const;

  /// Every stored prefix containing `bits` with length <= max_length,
  /// ordered longest (most specific) first. Appends to `out`.
  void match_chain(LpmBits bits, int max_length, std::vector<Match>& out,
                   std::uint64_t* visited = nullptr) const;

  /// Visits every stored prefix in canonical order (shorter prefix before
  /// its subtree, zero branch before one branch — i.e. ascending network,
  /// ascending length).
  void walk(const std::function<void(LpmBits bits, int length,
                                     std::uint32_t slot)>& fn) const;

  [[nodiscard]] std::size_t size() const { return size_; }
  /// Live node count, branch-only nodes included (observability: the path
  /// compression invariant keeps this < 2 * size()).
  [[nodiscard]] std::size_t node_count() const;
  void clear();

 private:
  static constexpr std::int32_t kNil = -1;

  struct Node {
    LpmBits bits;                    ///< canonical network bits
    std::int32_t child[2] = {kNil, kNil};
    std::int32_t parent = kNil;
    std::uint32_t slot = kNoSlot;    ///< kNoSlot = branch-only node
    std::uint8_t length = 0;
    bool in_use = false;
  };

  std::int32_t new_node(LpmBits bits, int length);
  void free_node(std::int32_t index);
  /// Re-establishes path compression around a node whose slot was cleared:
  /// removes it if childless, merges it with a single child.
  void compress(std::int32_t index);
  void replace_child(std::int32_t parent, std::int32_t was, std::int32_t now);

  std::vector<Node> nodes_;
  std::vector<std::int32_t> free_;
  std::int32_t root_ = kNil;
  std::size_t size_ = 0;
};

}  // namespace detail

/// A map from dual-stack IpPrefix to T with longest-prefix-match lookup.
///
/// One radix core per family: family separation is structural, so ::/0 can
/// never cover a v4 client and 0.0.0.0/0 never covers a v6 one — exactly
/// the RFC 7871 rule that a scope only serves clients of its own family.
/// Walk order is all v4 entries (canonical v4 order) followed by all v6
/// entries, matching std::map<IpPrefix> ordering.
///
/// Values live in a slot vector (stable across erases; insertion may grow
/// it), so pointers returned by find()/longest_match() stay valid until the
/// next insert() or clear().
template <typename T>
class IpLpmTrie {
 public:
  struct Match {
    IpPrefix prefix;
    T* value = nullptr;
  };

  /// Inserts or replaces the value at `prefix`; returns a pointer to the
  /// stored value.
  T* insert(const IpPrefix& prefix, T value) {
    detail::LpmCore& core = core_for(prefix.family());
    const auto key = key_of(prefix);
    const std::uint32_t existing = core.find(key, prefix.length());
    if (existing != detail::LpmCore::kNoSlot) {
      slots_[existing] = std::move(value);
      return &*slots_[existing];
    }
    const std::uint32_t slot = allocate_slot(std::move(value));
    core.insert(key, prefix.length(), slot);
    return &*slots_[slot];
  }

  /// Exact-match lookup; nullptr when `prefix` itself is not stored.
  [[nodiscard]] T* find(const IpPrefix& prefix, std::uint64_t* visited = nullptr) {
    const std::uint32_t slot =
        core_for(prefix.family()).find(key_of(prefix), prefix.length(), visited);
    return slot == detail::LpmCore::kNoSlot ? nullptr : &*slots_[slot];
  }
  [[nodiscard]] const T* find(const IpPrefix& prefix,
                              std::uint64_t* visited = nullptr) const {
    const std::uint32_t slot =
        core_for(prefix.family()).find(key_of(prefix), prefix.length(), visited);
    return slot == detail::LpmCore::kNoSlot ? nullptr : &*slots_[slot];
  }

  /// Removes `prefix`; false when absent.
  bool erase(const IpPrefix& prefix) {
    const std::uint32_t slot =
        core_for(prefix.family()).erase(key_of(prefix), prefix.length());
    if (slot == detail::LpmCore::kNoSlot) return false;
    slots_[slot].reset();
    free_slots_.push_back(slot);
    return true;
  }

  /// The most specific stored same-family prefix containing `addr`,
  /// restricted to lengths <= max_length (RFC 7871: a cached scope may only
  /// serve clients whose source prefix it contains, so pass the client
  /// subnet's length). Throws InvalidArgument when `max_length` is outside
  /// the family's range (0..32 for v4, 0..128 for v6).
  [[nodiscard]] std::optional<Match> longest_match(
      const IpAddr& addr, int max_length, std::uint64_t* visited = nullptr) {
    check_length(addr.family(), max_length);
    const auto m =
        core_for(addr.family()).longest_match(key_of(addr), max_length, visited);
    if (!m) return std::nullopt;
    return Match{prefix_of(addr.family(), *m), &*slots_[m->slot]};
  }

  /// Calls `fn(prefix, value)` for every stored same-family prefix
  /// containing `addr` with length <= max_length, longest first — the RFC
  /// 7871 candidate chain, so a caller can skip dead (expired) entries and
  /// fall back to the next-most-specific scope — until `fn` returns true.
  /// The chain is collected into a member scratch vector before the first
  /// call, so the walk allocates nothing once that vector has grown, and
  /// `fn` may erase() entries of this trie (not insert, and not walk it
  /// again). `max_length` is bounded per family as for longest_match().
  template <typename Fn>
  void visit_chain(const IpAddr& addr, int max_length, Fn&& fn,
                   std::uint64_t* visited = nullptr) {
    check_length(addr.family(), max_length);
    chain_scratch_.clear();
    core_for(addr.family())
        .match_chain(key_of(addr), max_length, chain_scratch_, visited);
    for (const auto& m : chain_scratch_) {
      if (fn(prefix_of(addr.family(), m), *slots_[m.slot])) return;
    }
  }

  /// Visits (IpPrefix, T&) for every entry: v4 entries in canonical order,
  /// then v6 entries likewise (== std::map<IpPrefix> iteration order).
  template <typename Fn>
  void walk(Fn&& fn) const {
    core4_.walk([&](detail::LpmBits bits, int length, std::uint32_t slot) {
      fn(IpPrefix(IpAddr(Ipv4Addr(bits.to_v4())), length), *slots_[slot]);
    });
    core6_.walk([&](detail::LpmBits bits, int length, std::uint32_t slot) {
      fn(IpPrefix(IpAddr(bits.to_v6()), length), *slots_[slot]);
    });
  }

  [[nodiscard]] std::size_t size() const { return core4_.size() + core6_.size(); }
  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] std::size_t node_count() const {
    return core4_.node_count() + core6_.node_count();
  }

  void clear() {
    core4_.clear();
    core6_.clear();
    slots_.clear();
    free_slots_.clear();
  }

 private:
  /// The shared core spans 128 bits for both families, so a v4 lookup with
  /// max_length 33..128 would silently act as /32; it is a caller bug.
  static void check_length(IpFamily family, int length) {
    const int max_bits = family == IpFamily::kV4 ? 32 : 128;
    if (length < 0 || length > max_bits) {
      throw InvalidArgument(std::string(family == IpFamily::kV4 ? "IPv4" : "IPv6") +
                            " prefix length out of range: " + std::to_string(length));
    }
  }

  [[nodiscard]] detail::LpmCore& core_for(IpFamily family) {
    return family == IpFamily::kV4 ? core4_ : core6_;
  }
  [[nodiscard]] const detail::LpmCore& core_for(IpFamily family) const {
    return family == IpFamily::kV4 ? core4_ : core6_;
  }

  static detail::LpmBits key_of(const IpPrefix& prefix) {
    return key_of(prefix.network());
  }
  static detail::LpmBits key_of(const IpAddr& addr) {
    return addr.is_v4() ? detail::LpmBits::from_v4(addr.v4().to_uint())
                        : detail::LpmBits::from_v6(addr.v6());
  }
  static IpPrefix prefix_of(IpFamily family, const detail::LpmCore::Match& m) {
    return family == IpFamily::kV4
               ? IpPrefix(IpAddr(Ipv4Addr(m.bits.to_v4())), m.length)
               : IpPrefix(IpAddr(m.bits.to_v6()), m.length);
  }

  std::uint32_t allocate_slot(T value) {
    if (!free_slots_.empty()) {
      const std::uint32_t slot = free_slots_.back();
      free_slots_.pop_back();
      slots_[slot] = std::move(value);
      return slot;
    }
    slots_.emplace_back(std::move(value));
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }

  detail::LpmCore core4_;
  detail::LpmCore core6_;
  std::vector<std::optional<T>> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<detail::LpmCore::Match> chain_scratch_;
};

}  // namespace drongo::net
