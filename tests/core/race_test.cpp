// ReplicaRacer and DrongoClient Go-With-The-Winner tests: determinism,
// winner/tie conventions, k clamping, tallies, and the racing resolution
// path end to end on a small testbed.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/drongo.hpp"
#include "core/race.hpp"
#include "measure/testbed.hpp"
#include "net/error.hpp"
#include "obs/metrics.hpp"

namespace drongo::core {
namespace {

measure::TestbedConfig tiny_config(std::uint64_t seed = 61) {
  measure::TestbedConfig config;
  config.as_config.tier1_count = 4;
  config.as_config.tier2_count = 10;
  config.as_config.stub_count = 40;
  config.client_count = 8;
  config.seed = seed;
  return config;
}

class RaceFixture : public ::testing::Test {
 protected:
  RaceFixture() : testbed_(tiny_config()) {}

  /// One replica from each of the first `n` clusters of provider 0.
  std::vector<net::Ipv4Addr> replicas(std::size_t n) {
    std::vector<net::Ipv4Addr> out;
    const auto& clusters = testbed_.provider(0).clusters();
    for (std::size_t i = 0; i < clusters.size() && out.size() < n; ++i) {
      out.push_back(clusters[i].replicas[0]);
    }
    return out;
  }

  measure::Testbed testbed_;
};

TEST_F(RaceFixture, SameRngSameRace) {
  ReplicaRacer racer(RaceConfig{.k = 3, .ping = {}});
  const auto field = replicas(4);
  const auto client = testbed_.clients()[0];
  net::Rng rng_a(5);
  net::Rng rng_b(5);
  const RaceResult a = racer.race(testbed_.world(), client, field, rng_a);
  const RaceResult b = racer.race(testbed_.world(), client, field, rng_b);
  EXPECT_EQ(a.contestants, b.contestants);
  EXPECT_EQ(a.rtts_ms, b.rtts_ms);
  EXPECT_EQ(a.winner_index, b.winner_index);
}

TEST_F(RaceFixture, WinnerHasTheMinimumRtt) {
  ReplicaRacer racer(RaceConfig{.k = 4, .ping = {}});
  const auto field = replicas(4);
  net::Rng rng(9);
  const RaceResult result = racer.race(testbed_.world(), testbed_.clients()[1], field, rng);
  ASSERT_EQ(result.contestants.size(), std::min<std::size_t>(4, field.size()));
  const auto min_it = std::min_element(result.rtts_ms.begin(), result.rtts_ms.end());
  EXPECT_EQ(result.winner_index,
            static_cast<std::size_t>(min_it - result.rtts_ms.begin()));
  EXPECT_DOUBLE_EQ(result.winner_rtt_ms(), *min_it);
  EXPECT_EQ(result.winner(), result.contestants[result.winner_index]);
}

TEST_F(RaceFixture, FieldIsClampedToTheAnswer) {
  ReplicaRacer racer(RaceConfig{.k = 16, .ping = {}});
  auto field = replicas(2);
  ASSERT_EQ(field.size(), 2u);
  net::Rng rng(9);
  const RaceResult result = racer.race(testbed_.world(), testbed_.clients()[0], field, rng);
  EXPECT_EQ(result.contestants.size(), 2u);
}

TEST_F(RaceFixture, SubTwoKDegeneratesToFirstReplica) {
  // k < 2 still probes one contestant (the CDN's choice) but can never
  // switch — the paper-faithful baseline.
  for (int k : {0, 1}) {
    ReplicaRacer racer(RaceConfig{.k = k, .ping = {}});
    net::Rng rng(9);
    const RaceResult result =
        racer.race(testbed_.world(), testbed_.clients()[0], replicas(4), rng);
    EXPECT_EQ(result.contestants.size(), 1u) << "k=" << k;
    EXPECT_EQ(result.winner_index, 0u);
    EXPECT_FALSE(result.switched());
  }
}

TEST_F(RaceFixture, EmptyFieldAndNegativeKAreRejected) {
  EXPECT_THROW(ReplicaRacer(RaceConfig{.k = -1, .ping = {}}), net::InvalidArgument);
  ReplicaRacer racer;
  net::Rng rng(9);
  const std::vector<net::Ipv4Addr> empty;
  EXPECT_THROW((void)racer.race(testbed_.world(), testbed_.clients()[0], empty, rng),
               net::InvalidArgument);
}

TEST_F(RaceFixture, TalliesPartitionTheRaces) {
  ReplicaRacer racer(RaceConfig{.k = 3, .ping = {}});
  net::Rng rng(17);
  const auto field = replicas(3);
  for (int i = 0; i < 32; ++i) {
    (void)racer.race(testbed_.world(), testbed_.clients()[i % 4], field, rng);
  }
  EXPECT_EQ(racer.races(), 32u);
  EXPECT_EQ(racer.switched() + racer.wins_first(), 32u);
}

TEST_F(RaceFixture, RegistryMirrorsTheTallies) {
  obs::Registry registry;
  ReplicaRacer racer(RaceConfig{.k = 2, .ping = {}});
  racer.set_registry(&registry);
  net::Rng rng(23);
  for (int i = 0; i < 8; ++i) {
    (void)racer.race(testbed_.world(), testbed_.clients()[0], replicas(3), rng);
  }
  const obs::Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("core.gwtw.races"), 8u);
  EXPECT_EQ(snap.histograms.at("core.gwtw.winner_rtt_ms").count, 8u);
}

TEST_F(RaceFixture, ResolveRacingCommitsToTheWinner) {
  DrongoClient drongo;
  drongo.enable_gwtw(2);
  ASSERT_NE(drongo.racer(), nullptr);
  auto stub = testbed_.make_stub(testbed_.clients()[0], 5);
  const dns::DnsName domain = testbed_.content_names(0)[0];
  net::Rng rng(31);
  const RacedResolution raced =
      drongo.resolve_racing(stub, domain, testbed_.world(), rng);
  ASSERT_TRUE(raced.resolution.ok());
  ASSERT_TRUE(raced.chosen.has_value());
  if (raced.resolution.addresses.size() > 1) {
    ASSERT_TRUE(raced.race.has_value());
    EXPECT_EQ(*raced.chosen, raced.race->winner());
  } else {
    EXPECT_EQ(*raced.chosen, raced.resolution.addresses.front());
  }
}

TEST_F(RaceFixture, GwtwDisabledKeepsTheCdnsOrder) {
  DrongoClient drongo;
  drongo.enable_gwtw(1);  // < 2: racing is a no-op
  EXPECT_EQ(drongo.racer(), nullptr);
  auto stub = testbed_.make_stub(testbed_.clients()[2], 5);
  const dns::DnsName domain = testbed_.content_names(1)[0];
  net::Rng rng(37);
  const RacedResolution raced =
      drongo.resolve_racing(stub, domain, testbed_.world(), rng);
  ASSERT_TRUE(raced.resolution.ok());
  EXPECT_FALSE(raced.race.has_value());
  ASSERT_TRUE(raced.chosen.has_value());
  EXPECT_EQ(*raced.chosen, raced.resolution.addresses.front());
}

TEST_F(RaceFixture, NegativeGwtwKThrows) {
  DrongoClient drongo;
  EXPECT_THROW(drongo.enable_gwtw(-1), net::InvalidArgument);
}

}  // namespace
}  // namespace drongo::core
