// CdnProvider's mapping table: a provider answering from a warm table must
// agree with one computing every key from scratch, whatever order the keys
// were first seen in and however many threads share it; and keys outside
// the world's allocated address plan must never be stored.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "cdn/deploy.hpp"
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

}  // namespace
}  // namespace drongo::cdn
