// CdnProvider's mapping table: a provider answering from a warm table must
// agree with one computing every key from scratch, whatever order the keys
// were first seen in and however many threads share it; and keys outside
// the world's allocated address plan must never be stored. On a RIPE-scale
// world, every selection must match a golden digest, and the routed RTT the
// mapping measures must match the memoized one and a haversine oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "cdn/deploy.hpp"
#include "measure/testbed.hpp"
#include "net/sharded_memo.hpp"
#include "topology/as_gen.hpp"

namespace drongo::cdn {
namespace {

TEST(ShardedMemoTest, FirstInsertWinsAndSizeCountsAllShards) {
  net::ShardedMemo<std::uint32_t, int> memo;
  EXPECT_EQ(memo.lookup(7), nullptr);
  for (std::uint32_t k = 0; k < 100; ++k) memo.insert(k, static_cast<int>(k));
  const int* stored = memo.lookup(7);
  EXPECT_EQ(&memo.insert(7, -1), stored);
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(*stored, 7);
  EXPECT_EQ(memo.size(), 100u);
}

/// One selection outcome: the persistent cluster plus the replica sets for a
/// fixed nonce sample.
struct Outcome {
  int persistent = -1;
  std::vector<std::vector<net::Ipv4Addr>> sets;
  friend bool operator==(const Outcome&, const Outcome&) = default;
};

constexpr std::uint64_t kNonces[] = {0, 1, 2, 3, 0x1234, 0xBEEF, 0xFFFF, 40503};

Outcome outcome_of(const CdnProvider& provider, const net::Prefix& subnet) {
  Outcome out;
  out.persistent = provider.mapped_cluster(subnet);
  for (const std::uint64_t nonce : kNonces) {
    out.sets.push_back(provider.select_replicas(subnet, nonce));
  }
  return out;
}

/// A provider with high error and spill rates, so displaced persistent
/// choices and runner-up spills are common; parameterized on the mapping
/// granularity (/24 keys are one plan /24, /20 keys span sixteen).
class MappingTableTest : public ::testing::TestWithParam<int> {
 protected:
  MappingTableTest() {
    topology::AsGenConfig as_config;
    as_config.tier1_count = 4;
    as_config.tier2_count = 8;
    as_config.stub_count = 30;
    as_config.seed = 11;
    auto graph = topology::generate_as_graph(as_config);
    CdnProfile profile = google_like();
    profile.mapping_granularity = GetParam();
    profile.mapping_error_rate = 0.4;
    profile.lb_spill_prob = 0.5;
    profile.mapped_fraction = 0.6;
    net::Rng rng(12);
    const CdnPlan plan = plan_cdn(graph, profile, rng);
    world_ = std::make_unique<topology::World>(std::move(graph));
    provider_ = std::make_unique<CdnProvider>(deploy_cdn(*world_, plan));
    for (std::size_t v = 0; v < world_->graph().node_count(); ++v) {
      if (world_->graph().node(v).tier != topology::AsTier::kStub) continue;
      for (int k = 0; k < 3; ++k) world_->add_host(v, topology::HostKind::kClient);
    }
    for (std::size_t v = 0; v < world_->graph().node_count(); ++v) {
      const std::uint32_t block = world_->block_of(v).network().to_uint();
      for (std::uint32_t third = 0; third < 256; ++third) {
        const net::Prefix subnet(net::Ipv4Addr(block | (third << 8)), 24);
        if (world_->is_allocated(subnet)) plan_.push_back(subnet);
      }
    }
  }

  /// A provider sharing the deployment but with an empty table.
  [[nodiscard]] std::unique_ptr<CdnProvider> fresh() const {
    return std::make_unique<CdnProvider>(provider_->profile(), world_.get(),
                                         provider_->as_index(), provider_->clusters(),
                                         provider_->vips());
  }

  /// The host /24 the next add_host in AS node `v` will hand out.
  [[nodiscard]] net::Prefix next_free(std::size_t v) const {
    const std::uint32_t block = world_->block_of(v).network().to_uint();
    std::uint32_t third = 32;
    while (world_->is_allocated(net::Prefix(net::Ipv4Addr(block | (third << 8)), 24))) ++third;
    return {net::Ipv4Addr(block | (third << 8)), 24};
  }

  /// Every plan /24's outcome, each from a provider that never saw another key.
  [[nodiscard]] std::vector<Outcome> cold_outcomes() const {
    std::vector<Outcome> out;
    for (const auto& subnet : plan_) out.push_back(outcome_of(*fresh(), subnet));
    return out;
  }

  std::unique_ptr<topology::World> world_;
  std::unique_ptr<CdnProvider> provider_;
  std::vector<net::Prefix> plan_;
};

TEST_P(MappingTableTest, WarmProviderMatchesFreshOneInEitherOrder) {
  ASSERT_GT(plan_.size(), 200u);
  const std::vector<Outcome> cold = cold_outcomes();

  auto forward = fresh();
  for (const auto& subnet : plan_) (void)forward->mapped_cluster(subnet);
  auto reverse = fresh();
  for (auto it = plan_.rbegin(); it != plan_.rend(); ++it) (void)reverse->mapped_cluster(*it);
  EXPECT_GT(forward->mapping_table_size(), 0u);
  EXPECT_EQ(forward->mapping_table_size(), reverse->mapping_table_size());

  int mapped = 0;
  for (std::size_t i = 0; i < plan_.size(); ++i) {
    ASSERT_EQ(outcome_of(*forward, plan_[i]), cold[i]) << plan_[i].to_string();
    ASSERT_EQ(outcome_of(*reverse, plan_[i]), cold[i]) << plan_[i].to_string();
    if (cold[i].persistent >= 0) ++mapped;
  }
  // Both kinds of key occur, so both table paths were compared.
  EXPECT_GT(mapped, 0);
  EXPECT_LT(mapped, static_cast<int>(plan_.size()));
}

TEST_P(MappingTableTest, ThreadsSharingOneTableAgreeWithSerialRun) {
  const std::vector<Outcome> cold = cold_outcomes();
  auto shared = fresh();
  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<Outcome>> seen(kThreads, std::vector<Outcome>(plan_.size()));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread starts at a different key, so first touches race.
      for (std::size_t k = 0; k < plan_.size(); ++k) {
        const std::size_t i = (k + t * plan_.size() / kThreads) % plan_.size();
        seen[t][i] = outcome_of(*shared, plan_[i]);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < plan_.size(); ++i) {
      ASSERT_EQ(seen[t][i], cold[i]) << "thread " << t << " " << plan_[i].to_string();
    }
  }
}

TEST_P(MappingTableTest, KeysOutsideThePlanAreNeverStored) {
  auto provider = fresh();
  std::vector<net::Prefix> outside = {
      net::Prefix::must_parse("192.168.1.0/24"), net::Prefix::must_parse("10.9.0.0/24"),
      net::Prefix::must_parse("198.18.0.0/24"), net::Prefix::must_parse("250.1.2.0/24")};
  // Unallocated host space inside the plan's blocks: hosts are handed out
  // upward from third octet 32, so every /24 from a block's next free one
  // on is free; start at a /20 boundary so the whole key is.
  for (std::size_t v = 0; v < world_->graph().node_count(); ++v) {
    const std::uint32_t next = next_free(v).network().to_uint();
    const std::uint32_t aligned = (next + 0xFFFu) & ~0xFFFu;
    if ((aligned >> 16) == (next >> 16)) outside.emplace_back(net::Ipv4Addr(aligned), 24);
  }
  ASSERT_GT(outside.size(), 20u);
  for (const auto& subnet : outside) {
    ASSERT_FALSE(world_->is_allocated(subnet)) << subnet.to_string();
    (void)provider->select_replicas(subnet, 1);
    (void)provider->select_replicas(subnet);
  }
  EXPECT_EQ(provider->mapping_table_size(), 0u);

  (void)provider->select_replicas(plan_.front(), 1);
  EXPECT_EQ(provider->mapping_table_size(), 1u);
}

TEST_P(MappingTableTest, SpaceAllocatedAfterAQueryIsNotServedStale) {
  auto provider = fresh();
  const std::size_t v = world_->graph().node_count() - 1;
  const net::Prefix subnet = next_free(v);
  const Outcome before = outcome_of(*provider, subnet);
  EXPECT_EQ(outcome_of(*provider, subnet), before);

  ASSERT_EQ(world_->add_host(v, topology::HostKind::kClient).to_uint() & ~0xFFu,
            subnet.network().to_uint());
  EXPECT_EQ(outcome_of(*provider, subnet), outcome_of(*fresh(), subnet));
}

INSTANTIATE_TEST_SUITE_P(Granularity, MappingTableTest, ::testing::Values(24, 20));

/// Every allocated /24 of `world`, in address order.
std::vector<net::Prefix> allocated_subnets(const topology::World& world) {
  std::vector<net::Prefix> plan;
  for (std::size_t v = 0; v < world.graph().node_count(); ++v) {
    const std::uint32_t block = world.block_of(v).network().to_uint();
    for (std::uint32_t third = 0; third < 256; ++third) {
      const net::Prefix subnet(net::Ipv4Addr(block | (third << 8)), 24);
      if (world.is_allocated(subnet)) plan.push_back(subnet);
    }
  }
  return plan;
}

/// Unallocated /24s inside the plan's blocks, from every fifth AS node: the
/// last host /24 and the first router-range /24 past the node's PoPs. Both
/// geolocate (to the node's first PoP) but have no measurable endpoint.
std::vector<net::Prefix> unallocated_in_block(const topology::World& world) {
  std::vector<net::Prefix> out;
  for (std::size_t v = 0; v < world.graph().node_count(); v += 5) {
    const std::uint32_t block = world.block_of(v).network().to_uint();
    const auto pops = static_cast<std::uint32_t>(world.graph().node(v).pops.size());
    for (const std::uint32_t third : {255u, 2 * pops}) {
      const net::Prefix subnet(net::Ipv4Addr(block | (third << 8)), 24);
      if (!world.is_allocated(subnet)) out.push_back(subnet);
    }
  }
  return out;
}

/// FNV-1a over 32-bit words.
class Digest {
 public:
  void add(std::uint32_t word) {
    for (int i = 0; i < 4; ++i) {
      hash_ ^= (word >> (8 * i)) & 0xFFu;
      hash_ *= 0x100000001B3ULL;
    }
  }
  void add(std::span<const std::uint32_t> words) {
    for (const std::uint32_t word : words) add(word);
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

/// What the digest reads of one (provider, /24): the persistent cluster,
/// then each nonce's replica set, terminated.
std::vector<std::uint32_t> selection_words(const CdnProvider& provider,
                                           const net::Prefix& subnet,
                                           std::span<const std::uint64_t> nonces) {
  std::vector<std::uint32_t> words{static_cast<std::uint32_t>(provider.mapped_cluster(subnet))};
  for (const std::uint64_t nonce : nonces) {
    for (const net::Ipv4Addr replica : provider.select_replicas(subnet, nonce)) {
      words.push_back(replica.to_uint());
    }
    words.push_back(0xFFFFFFFFu);
  }
  return words;
}

constexpr std::uint64_t kPlanNonces[] = {0, 0xBEEF};
constexpr std::uint64_t kUnallocatedNonces[] = {0, 1, 2, 3, 0x1234, 0xBEEF, 40503};

/// The digest of the RIPE world's six providers, computed on the code
/// before the single-pass mapping and the memo-free routed RTT: every
/// allocated /24 x provider (persistent cluster and two replica sets), then
/// the unallocated list x provider x seven nonces.
constexpr std::uint64_t kGoldenDigest = 0x51622C0D7F03F73AULL;

/// The RIPE-Atlas-scale testbed (seed 1729), built once per test binary.
measure::Testbed& ripe() {
  static measure::Testbed testbed(measure::TestbedConfig::ripe_atlas());
  return testbed;
}

/// Fresh providers (empty mapping tables) sharing the RIPE deployment.
std::vector<std::unique_ptr<CdnProvider>> fresh_ripe_providers() {
  measure::Testbed& testbed = ripe();
  std::vector<std::unique_ptr<CdnProvider>> out;
  for (std::size_t p = 0; p < testbed.provider_count(); ++p) {
    const CdnProvider& deployed = testbed.provider(p);
    out.push_back(std::make_unique<CdnProvider>(deployed.profile(), &testbed.world(),
                                                deployed.as_index(), deployed.clusters(),
                                                deployed.vips()));
  }
  return out;
}

/// One digest item: a provider, a /24 and the nonces to select with.
struct DigestItem {
  std::size_t provider = 0;
  net::Prefix subnet;
  std::span<const std::uint64_t> nonces;
};

/// The digest's items in digest order.
std::vector<DigestItem> digest_items(std::size_t providers) {
  const auto plan = allocated_subnets(ripe().world());
  const auto unallocated = unallocated_in_block(ripe().world());
  std::vector<DigestItem> items;
  for (std::size_t p = 0; p < providers; ++p) {
    for (const auto& subnet : plan) items.push_back({p, subnet, kPlanNonces});
  }
  for (std::size_t p = 0; p < providers; ++p) {
    for (const auto& subnet : unallocated) items.push_back({p, subnet, kUnallocatedNonces});
  }
  return items;
}

std::uint64_t digest_of(const std::vector<std::vector<std::uint32_t>>& words) {
  Digest digest;
  for (const auto& item : words) digest.add(item);
  return digest.value();
}

TEST(RipeMappingTest, SelectionsMatchTheGoldenDigest) {
  const auto providers = fresh_ripe_providers();
  ASSERT_EQ(providers.size(), 6u);
  const auto items = digest_items(providers.size());
  ASSERT_GT(unallocated_in_block(ripe().world()).size(), 100u);
  std::vector<std::vector<std::uint32_t>> words;
  words.reserve(items.size());
  for (const DigestItem& item : items) {
    words.push_back(selection_words(*providers[item.provider], item.subnet, item.nonces));
  }
  EXPECT_EQ(digest_of(words), kGoldenDigest)
      << std::hex << "digest 0x" << digest_of(words) << " over " << std::dec << items.size()
      << " items";
}

TEST(RipeMappingTest, ThreeThreadsFillingOneProviderMatchTheDigest) {
  const auto providers = fresh_ripe_providers();
  const auto items = digest_items(providers.size());
  constexpr std::size_t kThreads = 3;
  std::vector<std::vector<std::vector<std::uint32_t>>> seen(
      kThreads, std::vector<std::vector<std::uint32_t>>(items.size()));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread starts a third of the way further on, so first touches
      // of one provider's keys race across the threads.
      for (std::size_t k = 0; k < items.size(); ++k) {
        const std::size_t i = (k + t * items.size() / kThreads) % items.size();
        seen[t][i] =
            selection_words(*providers[items[i].provider], items[i].subnet, items[i].nonces);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(digest_of(seen[t]), kGoldenDigest) << "thread " << t;
  }
}

/// The routed one-way delay rebuilt from public pieces, the way the walk
/// computed it before the PoP-delay table: the AS path from the routing
/// table, the hot-potato interconnect by live haversine, the final leg.
double oracle_one_way_ms(topology::World& world, const topology::Host& src,
                         const topology::Host& dst) {
  const topology::AsGraph& graph = world.graph();
  const auto pop_location = [&](std::size_t as, int pop) {
    return graph.node(as).pops[static_cast<std::size_t>(pop)].location;
  };
  double total = src.access_ms;
  std::size_t as = src.as_index;
  int pop = src.pop_index;
  const auto path = world.routing().as_path(src.as_index, dst.as_index);
  for (std::size_t k = 0; k + 1 < path.size(); ++k) {
    const topology::AsLink* best = nullptr;
    double best_cost = std::numeric_limits<double>::infinity();
    for (const std::size_t l : graph.links_between(as, path[k + 1])) {
      const topology::AsLink& link = graph.link(l);
      const int exit = link.a == as ? link.pop_a : link.pop_b;
      const double cost =
          topology::propagation_ms(pop_location(as, pop), pop_location(as, exit)) +
          link.latency_ms;
      if (cost < best_cost) {
        best_cost = cost;
        best = &link;
      }
    }
    const bool forward = best->a == as;
    const int exit = forward ? best->pop_a : best->pop_b;
    total += topology::propagation_ms(pop_location(as, pop), pop_location(as, exit)) +
             world.config().intra_as_hop_ms;
    total += best->latency_ms;
    as = path[k + 1];
    pop = forward ? best->pop_b : best->pop_a;
  }
  total += topology::propagation_ms(pop_location(as, pop), dst.location) +
           world.config().intra_as_hop_ms + dst.access_ms;
  return total;
}

TEST(RipeMappingTest, MemoFreeRoutedRttEqualsTheMemoizedOneBitForBit) {
  topology::World& world = ripe().world();
  std::vector<topology::Host> fronts;
  for (std::size_t p = 0; p < ripe().provider_count(); ++p) {
    for (const CdnCluster& cluster : ripe().provider(p).clusters()) {
      const auto front = world.endpoint_of(cluster.replicas.front());
      ASSERT_TRUE(front.has_value());
      fronts.push_back(*front);
    }
  }
  std::size_t pairs = 0;
  for (const net::Prefix& subnet : allocated_subnets(world)) {
    const bool host = world.subnet_kind(subnet) == topology::SubnetKind::kHost;
    const auto representative =
        world.endpoint_of(net::Ipv4Addr(subnet.network().to_uint() | (host ? 10u : 1u)));
    ASSERT_TRUE(representative.has_value()) << subnet.to_string();
    for (const topology::Host& front : fronts) {
      const double memo_free = world.path_one_way_ms(front, *representative);
      ASSERT_EQ(2.0 * memo_free, world.rtt_base_ms(front.address, representative->address))
          << front.address.to_string() << " -> " << representative->address.to_string();
      ASSERT_EQ(memo_free, oracle_one_way_ms(world, front, *representative))
          << front.address.to_string() << " -> " << representative->address.to_string();
      ++pairs;
    }
  }
  EXPECT_GT(pairs, 100000u);
}

}  // namespace
}  // namespace drongo::cdn
