#include "topology/routing.hpp"

#include <limits>
#include <memory>
#include <queue>
#include <tuple>

#include "net/error.hpp"

namespace drongo::topology {

namespace {

/// Selection key, lexicographic: route class dominates (LOCAL_PREF), then
/// AS-path length, then the latency of the best interconnect to the next
/// hop (multi-homed networks prefer the better-performing egress), then
/// lowest next-hop ASN for full determinism.
struct Key {
  int cls = static_cast<int>(RouteClass::kNone);
  int len = std::numeric_limits<int>::max();
  double tie_latency = std::numeric_limits<double>::infinity();
  std::uint32_t asn = 0xFFFFFFFF;

  friend bool operator<(const Key& a, const Key& b) {
    return std::tie(a.cls, a.len, a.tie_latency, a.asn) <
           std::tie(b.cls, b.len, b.tie_latency, b.asn);
  }
};

}  // namespace

BgpRouting::BgpRouting(const AsGraph* graph)
    : graph_(graph), nodes_(graph == nullptr ? 0 : graph->node_count()) {
  if (graph_ == nullptr) throw net::InvalidArgument("null AsGraph");
  tables_.reset(static_cast<RouteEntry*>(::operator new(nodes_ * nodes_ * sizeof(RouteEntry))));
  computed_ = std::make_unique<std::once_flag[]>(nodes_);
}

std::span<const RouteEntry> BgpRouting::table_for(std::size_t dst) {
  if (dst >= nodes_) throw net::InvalidArgument("destination node out of range");
  const std::span<RouteEntry> row(tables_.get() + dst * nodes_, nodes_);
  std::call_once(computed_[dst], [&] {
    std::uninitialized_default_construct(row.begin(), row.end());
    compute(dst, row);
    cached_.fetch_add(1, std::memory_order_relaxed);
  });
  return row;
}

std::size_t BgpRouting::cached_destinations() const {
  return cached_.load(std::memory_order_relaxed);
}

void BgpRouting::compute(std::size_t dst, std::span<RouteEntry> table) const {
  const std::size_t n = table.size();
  std::vector<Key> keys(n);

  auto min_latency_between = [&](std::size_t a, std::size_t b) {
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t l : graph_->links_between(a, b)) {
      best = std::min(best, graph_->link(l).latency_ms);
    }
    return best;
  };
  auto candidate_key = [&](RouteClass cls, int len, std::size_t from, std::size_t next) {
    return Key{static_cast<int>(cls), len, min_latency_between(from, next),
               graph_->node(next).asn.value()};
  };
  auto adopt = [&](std::size_t v, RouteClass cls, const Key& key, std::size_t next,
                   std::size_t via) {
    table[v] = {cls, key.len, next, via};
    keys[v] = key;
  };

  // --- Phase 1: customer routes, BFS upward from the destination. Each
  // provider learns the route from its customer; only customer routes
  // propagate further upward.
  table[dst] = {RouteClass::kCustomer, 0, dst, 0};
  keys[dst] = {static_cast<int>(RouteClass::kCustomer), 0, 0.0, 0};
  std::vector<std::size_t> frontier{dst};
  while (!frontier.empty()) {
    std::vector<std::size_t> next_frontier;
    for (std::size_t v : frontier) {
      if (table[v].cls != RouteClass::kCustomer) continue;
      const int len = table[v].as_path_len;
      for (std::size_t l : graph_->provider_links(v)) {
        const std::size_t p = graph_->other_end(l, v);
        const Key key = candidate_key(RouteClass::kCustomer, len + 1, p, v);
        if (key < keys[p]) {
          const bool fresh = table[p].cls == RouteClass::kNone;
          adopt(p, RouteClass::kCustomer, key, v, l);
          if (fresh) next_frontier.push_back(p);
        }
      }
    }
    frontier = std::move(next_frontier);
  }

  // --- Phase 2: peer routes. Only customer routes cross peering links.
  std::vector<std::pair<Key, RouteEntry>> peer_candidates(
      n, {Key{}, RouteEntry{}});
  for (std::size_t v = 0; v < n; ++v) {
    for (std::size_t l : graph_->peer_links(v)) {
      const std::size_t u = graph_->other_end(l, v);
      if (table[u].cls != RouteClass::kCustomer) continue;
      const Key key = candidate_key(RouteClass::kPeer, table[u].as_path_len + 1, v, u);
      if (key < peer_candidates[v].first) {
        peer_candidates[v] = {key, {RouteClass::kPeer, key.len, u, l}};
      }
    }
  }
  for (std::size_t v = 0; v < n; ++v) {
    if (peer_candidates[v].second.cls == RouteClass::kPeer &&
        peer_candidates[v].first < keys[v]) {
      table[v] = peer_candidates[v].second;
      keys[v] = peer_candidates[v].first;
    }
  }

  // --- Phase 3: provider routes. Providers export their selected route
  // (any class) to customers. Dijkstra over keys: pops are final because
  // every relaxation produces a strictly larger key.
  using HeapItem = std::pair<Key, std::size_t>;
  auto heap_greater = [](const HeapItem& a, const HeapItem& b) { return b.first < a.first; };
  std::priority_queue<HeapItem, std::vector<HeapItem>, decltype(heap_greater)> heap(
      heap_greater);
  for (std::size_t v = 0; v < n; ++v) {
    if (table[v].cls != RouteClass::kNone) heap.emplace(keys[v], v);
  }
  std::vector<bool> done(n, false);
  while (!heap.empty()) {
    const auto [key, v] = heap.top();
    heap.pop();
    if (done[v]) continue;
    if (keys[v] < key) continue;  // stale entry
    done[v] = true;
    for (std::size_t l : graph_->customer_links(v)) {
      const std::size_t c = graph_->other_end(l, v);
      if (done[c]) continue;
      Key ckey = candidate_key(RouteClass::kProvider, table[v].as_path_len + 1, c, v);
      if (ckey < keys[c]) {
        adopt(c, RouteClass::kProvider, ckey, v, l);
        heap.emplace(ckey, c);
      }
    }
  }
}

std::vector<std::size_t> BgpRouting::as_path(std::size_t src, std::size_t dst) {
  const auto table = table_for(dst);
  if (src >= table.size() || table[src].cls == RouteClass::kNone) return {};
  std::vector<std::size_t> path{src};
  std::size_t v = src;
  while (v != dst) {
    v = table[v].next_node;
    path.push_back(v);
    if (path.size() > table.size()) {
      throw net::Error("routing loop detected toward node " + std::to_string(dst));
    }
  }
  return path;
}

std::vector<std::size_t> BgpRouting::link_path(std::size_t src, std::size_t dst) {
  const auto table = table_for(dst);
  if (src >= table.size() || table[src].cls == RouteClass::kNone) return {};
  std::vector<std::size_t> links;
  std::size_t v = src;
  while (v != dst) {
    links.push_back(table[v].via_link);
    v = table[v].next_node;
    if (links.size() > table.size()) {
      throw net::Error("routing loop detected toward node " + std::to_string(dst));
    }
  }
  return links;
}

bool BgpRouting::reachable(std::size_t src, std::size_t dst) {
  const auto table = table_for(dst);
  return src < table.size() && table[src].cls != RouteClass::kNone;
}

}  // namespace drongo::topology
