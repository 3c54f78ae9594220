#include "topology/as_graph.hpp"

#include <limits>

#include "net/error.hpp"

namespace drongo::topology {

int AsNode::closest_pop(const GeoPoint& point) const {
  int best = 0;
  double best_km = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < pops.size(); ++i) {
    const double km = distance_km(pops[i].location, point);
    if (km < best_km) {
      best_km = km;
      best = static_cast<int>(i);
    }
  }
  return best;
}

std::size_t AsGraph::add_node(AsNode node) {
  if (node.pops.empty()) {
    throw net::InvalidArgument("AS " + node.asn.to_string() + " has no PoPs");
  }
  if (by_asn_.contains(node.asn.value())) {
    throw net::InvalidArgument("duplicate ASN " + node.asn.to_string());
  }
  const std::size_t index = nodes_.size();
  by_asn_[node.asn.value()] = index;
  nodes_.push_back(std::move(node));
  provider_links_.emplace_back();
  customer_links_.emplace_back();
  peer_links_.emplace_back();
  return index;
}

std::size_t AsGraph::add_link(AsLink link) {
  if (link.a >= nodes_.size() || link.b >= nodes_.size()) {
    throw net::InvalidArgument("link endpoint out of range");
  }
  if (link.a == link.b) {
    throw net::InvalidArgument("self-link on node " + std::to_string(link.a));
  }
  const std::size_t index = links_.size();
  links_.push_back(link);
  const std::uint64_t key = link.a < link.b
                                ? (std::uint64_t{link.a} << 32) | link.b
                                : (std::uint64_t{link.b} << 32) | link.a;
  by_pair_[key].push_back(index);
  if (link.kind == LinkKind::kTransit) {
    provider_links_[link.a].push_back(index);  // a buys from b
    customer_links_[link.b].push_back(index);  // b sells to a
  } else {
    peer_links_[link.a].push_back(index);
    peer_links_[link.b].push_back(index);
  }
  return index;
}

std::optional<std::size_t> AsGraph::index_of(net::Asn asn) const {
  auto it = by_asn_.find(asn.value());
  if (it == by_asn_.end()) return std::nullopt;
  return it->second;
}

const std::vector<std::size_t>& AsGraph::provider_links(std::size_t v) const {
  return provider_links_.at(v);
}

const std::vector<std::size_t>& AsGraph::customer_links(std::size_t v) const {
  return customer_links_.at(v);
}

const std::vector<std::size_t>& AsGraph::peer_links(std::size_t v) const {
  return peer_links_.at(v);
}

std::span<const std::size_t> AsGraph::links_between(std::size_t a, std::size_t b) const {
  const std::uint64_t key =
      a < b ? (std::uint64_t{a} << 32) | b : (std::uint64_t{b} << 32) | a;
  auto it = by_pair_.find(key);
  if (it == by_pair_.end()) return {};
  return it->second;
}

std::size_t AsGraph::other_end(std::size_t l, std::size_t v) const {
  const AsLink& link = links_.at(l);
  if (link.a == v) return link.b;
  if (link.b == v) return link.a;
  throw net::InvalidArgument("node " + std::to_string(v) + " not on link " + std::to_string(l));
}

}  // namespace drongo::topology
