// Valley-free (Gao-Rexford) AS-level routing with BGP-style preferences.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "topology/as_graph.hpp"

namespace drongo::topology {

/// Route class in decreasing BGP preference order. A route learned from a
/// customer is preferred over one learned from a peer, which beats one
/// learned from a provider — regardless of AS-path length. Length breaks
/// ties within a class.
enum class RouteClass : std::uint8_t {
  kCustomer = 0,
  kPeer = 1,
  kProvider = 2,
  kNone = 3,
};

/// One node's selected route toward a fixed destination.
struct RouteEntry {
  RouteClass cls = RouteClass::kNone;
  int as_path_len = -1;          ///< number of AS-level hops to the destination
  std::size_t next_node = 0;     ///< next AS on the selected path
  std::size_t via_link = 0;      ///< link index used to reach next_node
};

/// Computes and caches destination-rooted valley-free routing trees.
///
/// The standard export rules are enforced exactly:
///  - routes are always exported to customers;
///  - only customer-learned (or originated) routes are exported to peers
///    and providers.
/// Selection at each AS is lexicographic (class, path length, lowest
/// next-hop ASN), mirroring LOCAL_PREF dominance over AS-path length in
/// real BGP. The resulting paths exhibit the routing inflation the paper
/// identifies as a root cause of bad CDN choices: with peering missing, the
/// only valley-free path may detour far out of the geographic way.
class BgpRouting {
 public:
  /// The graph is borrowed and must outlive the router. The graph must not
  /// be mutated after construction (tables are cached, and their storage is
  /// sized for the node count at construction).
  explicit BgpRouting(const AsGraph* graph);

  /// Full routing table toward `dst` (indexed by node). Computed on first
  /// use, cached thereafter. Safe to call from multiple threads: the first
  /// caller for a destination computes its table and concurrent callers for
  /// the same destination wait for it.
  std::span<const RouteEntry> table_for(std::size_t dst);

  /// AS-level path src -> dst inclusive of both ends; empty when
  /// unreachable or src == dst is returned as {src}.
  std::vector<std::size_t> as_path(std::size_t src, std::size_t dst);

  /// The link indices traversed along as_path (size = path length - 1).
  std::vector<std::size_t> link_path(std::size_t src, std::size_t dst);

  [[nodiscard]] bool reachable(std::size_t src, std::size_t dst);

  /// Number of cached destination trees (observability).
  [[nodiscard]] std::size_t cached_destinations() const;

 private:
  struct FreeStorage {
    void operator()(RouteEntry* storage) const { ::operator delete(storage); }
  };

  /// Fills `table` (default-constructed entries, one per node) with the
  /// routes toward `dst`.
  void compute(std::size_t dst, std::span<RouteEntry> table) const;

  const AsGraph* graph_;
  std::size_t nodes_;
  /// nodes_ x nodes_ entries; row `dst` is the table toward dst. Allocated
  /// whole but left untouched at construction, so every table lives in one
  /// block owned by the router, not in the heap of whichever thread first
  /// asked for it, and a row's pages only become resident once computed.
  std::unique_ptr<RouteEntry, FreeStorage> tables_;
  std::unique_ptr<std::once_flag[]> computed_;  ///< one per row
  std::atomic<std::size_t> cached_{0};          ///< rows computed so far
};

}  // namespace drongo::topology
