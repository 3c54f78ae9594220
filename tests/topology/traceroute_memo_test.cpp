// World's traceroute skeleton memo: a traceroute answered from a warm memo
// must equal one from a fresh World for the same Rng state, for every
// client -> replica pair (anycast VIPs included), and threads sharing one
// World must see exactly what a serial run sees.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <thread>
#include <vector>

#include "measure/testbed.hpp"

namespace drongo::topology {
namespace {

measure::TestbedConfig small_testbed() {
  measure::TestbedConfig config;
  config.as_config.tier1_count = 4;
  config.as_config.tier2_count = 8;
  config.as_config.stub_count = 20;
  config.client_count = 3;
  config.site_count = 0;
  config.seed = 77;
  return config;
}

struct Pair {
  net::Ipv4Addr client;
  net::Ipv4Addr target;
};

/// Every client toward every replica and VIP of every provider.
std::vector<Pair> all_pairs(measure::Testbed& testbed) {
  std::vector<Pair> pairs;
  for (const net::Ipv4Addr client : testbed.clients()) {
    for (std::size_t p = 0; p < testbed.provider_count(); ++p) {
      const auto& provider = testbed.provider(p);
      for (const auto& cluster : provider.clusters()) {
        for (const net::Ipv4Addr replica : cluster.replicas) pairs.push_back({client, replica});
      }
      for (const net::Ipv4Addr vip : provider.vips()) pairs.push_back({client, vip});
    }
  }
  return pairs;
}

/// One traceroute with its own, pair-specific RNG stream.
std::vector<TracerouteHop> trace(World& world, const Pair& pair, std::size_t index) {
  net::Rng rng = net::Rng::derive(91, index);
  return world.traceroute(pair.client, pair.target, rng);
}

/// Field-by-field, RTTs compared bit for bit.
void expect_same_hops(const std::vector<TracerouteHop>& a, const std::vector<TracerouteHop>& b,
                      std::size_t index) {
  ASSERT_EQ(a.size(), b.size()) << "pair " << index;
  for (std::size_t h = 0; h < a.size(); ++h) {
    EXPECT_EQ(a[h].ip, b[h].ip) << "pair " << index << " hop " << h;
    EXPECT_EQ(a[h].asn, b[h].asn) << "pair " << index << " hop " << h;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[h].rtt_ms), std::bit_cast<std::uint64_t>(b[h].rtt_ms))
        << "pair " << index << " hop " << h;
    EXPECT_EQ(a[h].responded, b[h].responded) << "pair " << index << " hop " << h;
    EXPECT_EQ(a[h].is_private, b[h].is_private) << "pair " << index << " hop " << h;
    EXPECT_EQ(a[h].rdns, b[h].rdns) << "pair " << index << " hop " << h;
  }
}

TEST(TracerouteMemoTest, WarmMemoMatchesAFreshWorld) {
  measure::Testbed warm(small_testbed());
  measure::Testbed fresh(small_testbed());
  const std::vector<Pair> pairs = all_pairs(warm);
  ASSERT_EQ(pairs.size(), all_pairs(fresh).size());
  std::size_t vips = 0;
  for (const Pair& pair : pairs) vips += warm.world().is_anycast(pair.target) ? 1 : 0;
  ASSERT_GT(vips, 0u) << "the default providers include an anycast CDN";

  // Fill the warm world's memo with draws the comparison never sees.
  for (std::size_t i = 0; i < pairs.size(); ++i) (void)trace(warm.world(), pairs[i], i + 1000);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto from_memo = trace(warm.world(), pairs[i], i);
    const auto computed = trace(fresh.world(), pairs[i], i);
    expect_same_hops(from_memo, computed, i);
    ASSERT_FALSE(from_memo.empty());
    // The last hop is the replica (for a VIP, the instance it routes to).
    EXPECT_TRUE(warm.world().is_host(from_memo.back().ip));
  }
}

TEST(TracerouteMemoTest, ThreadsSharingOneWorldMatchASerialRun) {
  measure::Testbed serial(small_testbed());
  measure::Testbed shared(small_testbed());
  const std::vector<Pair> pairs = all_pairs(serial);
  std::vector<std::vector<TracerouteHop>> expected;
  expected.reserve(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    expected.push_back(trace(serial.world(), pairs[i], i));
  }

  // Four threads walk the same pairs from different starting points, so
  // first uses of a key race with lookups of it on the other threads.
  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<std::vector<TracerouteHop>>> seen(
      kThreads, std::vector<std::vector<TracerouteHop>>(pairs.size()));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t k = 0; k < pairs.size(); ++k) {
        const std::size_t i = (k + t * pairs.size() / kThreads) % pairs.size();
        seen[t][i] = trace(shared.world(), pairs[i], i);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < pairs.size(); ++i) expect_same_hops(seen[t][i], expected[i], i);
  }
}

}  // namespace
}  // namespace drongo::topology
