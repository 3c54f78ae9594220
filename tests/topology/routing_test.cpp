// Valley-free routing semantics on hand-built graphs, plus a property sweep
// over generated graphs.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "net/error.hpp"
#include "topology/as_gen.hpp"
#include "topology/routing.hpp"

namespace drongo::topology {
namespace {

AsNode node(std::uint32_t asn, AsTier tier = AsTier::kStub) {
  AsNode n;
  n.asn = net::Asn(asn);
  n.tier = tier;
  n.domain = "as" + std::to_string(asn) + ".example";
  n.pops.push_back({0, {0.0, 0.0}});
  return n;
}

void transit(AsGraph& g, std::size_t customer, std::size_t provider, double ms = 1.0) {
  AsLink l;
  l.a = customer;
  l.b = provider;
  l.kind = LinkKind::kTransit;
  l.latency_ms = ms;
  g.add_link(l);
}

void peering(AsGraph& g, std::size_t x, std::size_t y, double ms = 1.0) {
  AsLink l;
  l.a = x;
  l.b = y;
  l.kind = LinkKind::kPeering;
  l.latency_ms = ms;
  g.add_link(l);
}

/// Checks the Gao-Rexford shape: (customer->provider)* [peer] (provider->customer)*.
bool is_valley_free(const AsGraph& g, const std::vector<std::size_t>& path) {
  enum Phase { kUp, kPeered, kDown } phase = kUp;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const auto links = g.links_between(path[i], path[i + 1]);
    if (links.empty()) return false;
    const AsLink& l = g.link(links.front());
    if (l.kind == LinkKind::kPeering) {
      if (phase != kUp) return false;  // at most one peer edge, before descending
      phase = kPeered;
    } else if (l.a == path[i]) {
      // uphill step (i is the customer)
      if (phase != kUp) return false;
    } else {
      // downhill step (i is the provider)
      phase = kDown;
    }
  }
  return true;
}

TEST(RoutingTest, DirectCustomerProvider) {
  AsGraph g;
  const auto c = g.add_node(node(1));
  const auto p = g.add_node(node(2, AsTier::kTier1));
  transit(g, c, p);
  BgpRouting routing(&g);
  EXPECT_EQ(routing.as_path(c, p), (std::vector<std::size_t>{c, p}));
  EXPECT_EQ(routing.as_path(p, c), (std::vector<std::size_t>{p, c}));
  EXPECT_EQ(routing.as_path(c, c), (std::vector<std::size_t>{c}));
}

TEST(RoutingTest, SiblingsRouteViaSharedProvider) {
  AsGraph g;
  const auto a = g.add_node(node(1));
  const auto b = g.add_node(node(2));
  const auto p = g.add_node(node(3, AsTier::kTier1));
  transit(g, a, p);
  transit(g, b, p);
  BgpRouting routing(&g);
  EXPECT_EQ(routing.as_path(a, b), (std::vector<std::size_t>{a, p, b}));
}

TEST(RoutingTest, PeeringUsedForOneHorizontalStep) {
  AsGraph g;
  const auto a = g.add_node(node(1));
  const auto b = g.add_node(node(2));
  peering(g, a, b);
  BgpRouting routing(&g);
  EXPECT_EQ(routing.as_path(a, b), (std::vector<std::size_t>{a, b}));
}

TEST(RoutingTest, NoDoublePeeringTraversal) {
  // a -peer- b -peer- c : a cannot reach c (two peer hops = a valley).
  AsGraph g;
  const auto a = g.add_node(node(1));
  const auto b = g.add_node(node(2));
  const auto c = g.add_node(node(3));
  peering(g, a, b);
  peering(g, b, c);
  BgpRouting routing(&g);
  EXPECT_FALSE(routing.reachable(a, c));
  EXPECT_TRUE(routing.as_path(a, c).empty());
}

TEST(RoutingTest, NoTransitThroughCustomer) {
  // p1 and p2 are both providers of c. p1 must NOT reach p2 via c (a
  // customer does not provide transit); no other path exists.
  AsGraph g;
  const auto c = g.add_node(node(1));
  const auto p1 = g.add_node(node(2, AsTier::kTier1));
  const auto p2 = g.add_node(node(3, AsTier::kTier1));
  transit(g, c, p1);
  transit(g, c, p2);
  BgpRouting routing(&g);
  EXPECT_FALSE(routing.reachable(p1, p2));
  // But c reaches both, and both reach c.
  EXPECT_TRUE(routing.reachable(c, p1));
  EXPECT_TRUE(routing.reachable(p2, c));
}

TEST(RoutingTest, CustomerRoutePreferredOverShorterPeerRoute) {
  // dst is BOTH reachable via a customer chain of length 2 and via a direct
  // peer edge. BGP prefers the customer route despite extra length.
  AsGraph g;
  const auto src = g.add_node(node(1, AsTier::kTier1));
  const auto mid = g.add_node(node(2));
  const auto dst = g.add_node(node(3));
  transit(g, mid, src);   // mid is src's customer
  transit(g, dst, mid);   // dst is mid's customer
  peering(g, src, dst);   // also a direct peer edge
  BgpRouting routing(&g);
  const auto path = routing.as_path(src, dst);
  EXPECT_EQ(path, (std::vector<std::size_t>{src, mid, dst}));
  EXPECT_EQ(routing.table_for(dst)[src].cls, RouteClass::kCustomer);
}

TEST(RoutingTest, PeerRoutePreferredOverProviderRoute) {
  // src can reach dst via a peer (1 hop to peer's customer chain) or via
  // its provider; peer must win.
  AsGraph g;
  const auto src = g.add_node(node(1));
  const auto peer = g.add_node(node(2));
  const auto dst = g.add_node(node(3));
  const auto top = g.add_node(node(4, AsTier::kTier1));
  transit(g, dst, peer);  // dst is peer's customer
  peering(g, src, peer);
  transit(g, src, top);
  transit(g, peer, top);
  BgpRouting routing(&g);
  EXPECT_EQ(routing.as_path(src, dst), (std::vector<std::size_t>{src, peer, dst}));
  EXPECT_EQ(routing.table_for(dst)[src].cls, RouteClass::kPeer);
}

TEST(RoutingTest, ProviderRouteAsLastResort) {
  AsGraph g;
  const auto a = g.add_node(node(1));
  const auto b = g.add_node(node(2));
  const auto p = g.add_node(node(3, AsTier::kTier1));
  transit(g, a, p);
  transit(g, b, p);
  BgpRouting routing(&g);
  EXPECT_EQ(routing.table_for(b)[a].cls, RouteClass::kProvider);
}

TEST(RoutingTest, LatencyTiebreakPrefersCloserEgress) {
  // Two providers offer equal-length routes to dst; the one whose
  // interconnect is lower-latency must be chosen.
  AsGraph g;
  const auto src = g.add_node(node(1));
  const auto near = g.add_node(node(7, AsTier::kTier1));
  const auto far = g.add_node(node(3, AsTier::kTier1));  // lower ASN: would win an ASN tiebreak
  const auto dst = g.add_node(node(4));
  transit(g, src, near, /*ms=*/1.0);
  transit(g, src, far, /*ms=*/50.0);
  transit(g, dst, near, 1.0);
  transit(g, dst, far, 1.0);
  BgpRouting routing(&g);
  EXPECT_EQ(routing.as_path(src, dst), (std::vector<std::size_t>{src, near, dst}));
}

TEST(RoutingTest, LinkPathMatchesAsPath) {
  AsGraph g;
  const auto a = g.add_node(node(1));
  const auto p = g.add_node(node(2, AsTier::kTier1));
  const auto b = g.add_node(node(3));
  transit(g, a, p);
  transit(g, b, p);
  BgpRouting routing(&g);
  const auto links = routing.link_path(a, b);
  ASSERT_EQ(links.size(), 2u);
  EXPECT_EQ(g.other_end(links[0], a), p);
  EXPECT_EQ(g.other_end(links[1], p), b);
}

TEST(RoutingTest, TablesAreCached) {
  AsGraph g;
  const auto a = g.add_node(node(1));
  const auto p = g.add_node(node(2, AsTier::kTier1));
  transit(g, a, p);
  BgpRouting routing(&g);
  routing.table_for(p);
  routing.table_for(p);
  routing.table_for(a);
  EXPECT_EQ(routing.cached_destinations(), 2u);
}

bool same_table(std::span<const RouteEntry> a, std::span<const RouteEntry> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].cls != b[i].cls || a[i].as_path_len != b[i].as_path_len ||
        a[i].next_node != b[i].next_node || a[i].via_link != b[i].via_link) {
      return false;
    }
  }
  return true;
}

TEST(RoutingTest, ConcurrentFirstUseMatchesSerial) {
  AsGenConfig config;
  config.tier1_count = 4;
  config.tier2_count = 10;
  config.stub_count = 40;
  const AsGraph g = generate_as_graph(config);
  const std::size_t n = g.node_count();
  BgpRouting serial(&g);
  BgpRouting shared(&g);
  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<bool>> agrees(kThreads, std::vector<bool>(n, false));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread starts at a different destination, so first uses race.
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t dst = (k + t * n / kThreads) % n;
        const auto table = shared.table_for(dst);
        agrees[t][dst] = table.size() == n && table[dst].cls == RouteClass::kCustomer;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (std::size_t dst = 0; dst < n; ++dst) {
    EXPECT_TRUE(same_table(shared.table_for(dst), serial.table_for(dst))) << "dst=" << dst;
    for (std::size_t t = 0; t < kThreads; ++t) EXPECT_TRUE(agrees[t][dst]) << "dst=" << dst;
  }
  EXPECT_EQ(shared.cached_destinations(), n);
}

TEST(RoutingTest, OutOfRangeDestinationThrows) {
  AsGraph g;
  g.add_node(node(1));
  BgpRouting routing(&g);
  EXPECT_THROW(routing.table_for(5), net::InvalidArgument);
}

/// Property sweep: every computed path on generated Internets is valley-free
/// and terminates.
class RoutingPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RoutingPropertyTest, AllPathsValleyFreeOnGeneratedGraph) {
  AsGenConfig config;
  config.tier1_count = 4;
  config.tier2_count = 10;
  config.stub_count = 40;
  config.seed = GetParam();
  const AsGraph g = generate_as_graph(config);
  BgpRouting routing(&g);

  net::Rng rng(GetParam() ^ 0xABCDEF);
  int checked = 0;
  for (int i = 0; i < 200; ++i) {
    const auto src = rng.index(g.node_count());
    const auto dst = rng.index(g.node_count());
    const auto path = routing.as_path(src, dst);
    if (path.empty()) continue;  // unreachable pairs are allowed
    EXPECT_EQ(path.front(), src);
    EXPECT_EQ(path.back(), dst);
    EXPECT_TRUE(is_valley_free(g, path)) << "src=" << src << " dst=" << dst;
    ++checked;
  }
  // The generated Internet is well-connected: the vast majority of pairs route.
  EXPECT_GT(checked, 150);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoutingPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 42));

}  // namespace
}  // namespace drongo::topology
