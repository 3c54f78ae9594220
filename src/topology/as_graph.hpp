// AS-level Internet graph: nodes (with PoPs), business-relationship links.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/types.hpp"
#include "topology/geo.hpp"

namespace drongo::topology {

/// Commercial tier of an AS. Determines which relationships the generator
/// creates and how many points of presence the AS gets.
enum class AsTier : std::uint8_t {
  kTier1,   ///< transit-free backbone, global PoPs, full T1 peering mesh
  kTier2,   ///< regional transit provider, buys from T1s, peers laterally
  kStub,    ///< eyeball/enterprise edge network, buys transit only
};

/// A point of presence: one location where an AS has routers.
struct Pop {
  int metro_index = 0;   ///< index into world_metros()
  GeoPoint location;     ///< jittered around the metro centre
};

/// One autonomous system.
struct AsNode {
  net::Asn asn;
  AsTier tier = AsTier::kStub;
  /// Operator domain used for router reverse-DNS ("r3.pop1.<domain>").
  std::string domain;
  std::vector<Pop> pops;

  /// PoP closest to `point` (index into pops). An AS always has >= 1 PoP.
  [[nodiscard]] int closest_pop(const GeoPoint& point) const;
};

/// Business relationship carried by a link.
enum class LinkKind : std::uint8_t {
  kTransit,   ///< a buys transit from b (a = customer, b = provider)
  kPeering,   ///< settlement-free peering between a and b
};

/// An inter-AS link between two specific PoPs.
struct AsLink {
  std::size_t a = 0;        ///< node index of the customer (transit) / first peer
  std::size_t b = 0;        ///< node index of the provider (transit) / second peer
  int pop_a = 0;            ///< PoP index on a's side
  int pop_b = 0;            ///< PoP index on b's side
  LinkKind kind = LinkKind::kTransit;
  double latency_ms = 1.0;  ///< one-way latency across the link
};

/// The AS graph: nodes, links, and adjacency with relationship semantics.
/// Node indices (size_t) are the primary handle; ASNs map 1:1 to indices.
class AsGraph {
 public:
  /// Adds a node; returns its index. ASNs must be unique.
  std::size_t add_node(AsNode node);

  /// Adds a link between existing nodes. For kTransit, `a` is the customer.
  /// Self-links are rejected.
  std::size_t add_link(AsLink link);

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] std::size_t link_count() const { return links_.size(); }
  [[nodiscard]] const AsNode& node(std::size_t index) const { return nodes_.at(index); }
  [[nodiscard]] const AsLink& link(std::size_t index) const { return links_.at(index); }
  [[nodiscard]] const std::vector<AsNode>& nodes() const { return nodes_; }
  [[nodiscard]] const std::vector<AsLink>& links() const { return links_; }

  /// Index lookup by ASN; nullopt when unknown.
  [[nodiscard]] std::optional<std::size_t> index_of(net::Asn asn) const;

  /// Link indices incident to node `v` where v is the CUSTOMER side
  /// (v buys transit over these links).
  [[nodiscard]] const std::vector<std::size_t>& provider_links(std::size_t v) const;

  /// Link indices incident to node `v` where v is the PROVIDER side.
  [[nodiscard]] const std::vector<std::size_t>& customer_links(std::size_t v) const;

  /// Peering link indices incident to node `v` (either side).
  [[nodiscard]] const std::vector<std::size_t>& peer_links(std::size_t v) const;

  /// The node on the far side of link `l` from `v`.
  [[nodiscard]] std::size_t other_end(std::size_t l, std::size_t v) const;

  /// All link indices directly connecting nodes `a` and `b` (either
  /// orientation, any kind). Real AS pairs interconnect at many locations;
  /// path stitching picks among these hot-potato style. A view into the
  /// graph's pair index: an add_link may move it, so read it in place and
  /// never keep it across graph construction.
  [[nodiscard]] std::span<const std::size_t> links_between(std::size_t a,
                                                          std::size_t b) const;

 private:
  std::vector<AsNode> nodes_;
  std::vector<AsLink> links_;
  std::unordered_map<std::uint32_t, std::size_t> by_asn_;
  std::vector<std::vector<std::size_t>> provider_links_;  // per node
  std::vector<std::vector<std::size_t>> customer_links_;  // per node
  std::vector<std::vector<std::size_t>> peer_links_;      // per node
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> by_pair_;
};

}  // namespace drongo::topology
