// TrialRunner and TrialRecord semantics, probes, and the testbed wiring.
#include <gtest/gtest.h>

#include "measure/dataset.hpp"
#include "measure/probes.hpp"
#include "measure/testbed.hpp"
#include "measure/trial.hpp"
#include "net/error.hpp"
#include "obs/metrics.hpp"

#include <cmath>
#include <set>
#include <sstream>

namespace drongo::measure {
namespace {

TestbedConfig tiny_config(std::uint64_t seed = 51) {
  TestbedConfig config;
  config.as_config.tier1_count = 4;
  config.as_config.tier2_count = 10;
  config.as_config.stub_count = 40;
  config.client_count = 6;
  config.seed = seed;
  return config;
}

class TrialFixture : public ::testing::Test {
 protected:
  TrialFixture() : testbed_(tiny_config()) {}
  Testbed testbed_;
};

TEST_F(TrialFixture, TestbedWiringIsComplete) {
  EXPECT_EQ(testbed_.provider_count(), 6u);
  EXPECT_EQ(testbed_.clients().size(), 6u);
  for (std::size_t p = 0; p < testbed_.provider_count(); ++p) {
    EXPECT_FALSE(testbed_.content_names(p).empty());
  }
  // Every client can resolve every provider through the resolver chain.
  auto stub = testbed_.make_stub(testbed_.clients()[0]);
  for (std::size_t p = 0; p < testbed_.provider_count(); ++p) {
    const auto result = stub.resolve_with_own_subnet(testbed_.content_names(p)[0]);
    EXPECT_TRUE(result.ok()) << testbed_.profile(p).name;
  }
}

TEST_F(TrialFixture, ClientsLiveInDistinctSlash24s) {
  std::set<net::Prefix> subnets;
  for (auto client : testbed_.clients()) {
    EXPECT_TRUE(subnets.insert(net::Prefix(client, 24)).second);
  }
}

TEST_F(TrialFixture, TrialHasTheFiveStepStructure) {
  TrialRunner runner(&testbed_, 7);
  const auto trial = runner.run(0, 0, 1.0);
  EXPECT_EQ(trial.provider, "Google");
  EXPECT_EQ(trial.client, testbed_.clients()[0]);
  EXPECT_DOUBLE_EQ(trial.time_hours, 1.0);
  // CR-set measured.
  ASSERT_FALSE(trial.cr.empty());
  for (const auto& m : trial.cr) {
    EXPECT_GT(m.rtt_ms, 0.0);
  }
  // Hops collected, some usable, usable ones have HR-sets with HRMs.
  ASSERT_FALSE(trial.hops.empty());
  int usable = 0;
  for (const auto& hop : trial.hops) {
    if (!hop.usable) {
      EXPECT_TRUE(hop.hr.empty());  // no assimilation for filtered hops
      continue;
    }
    ++usable;
    for (const auto& m : hop.hr) {
      EXPECT_GT(m.rtt_ms, 0.0);
    }
  }
  EXPECT_GT(usable, 0);
}

TEST_F(TrialFixture, MinAndFirstCrmConventions) {
  TrialRunner runner(&testbed_, 7);
  const auto trial = runner.run(0, 0, 0.0);
  EXPECT_LE(trial.min_crm(), trial.first_crm());
  EXPECT_DOUBLE_EQ(trial.first_crm(), trial.cr.front().rtt_ms);
  TrialRecord empty;
  EXPECT_TRUE(std::isinf(empty.min_crm()));
  EXPECT_TRUE(std::isinf(empty.first_crm()));
}

TEST_F(TrialFixture, HopSubnetsAreDeduplicatedPerTrial) {
  TrialRunner runner(&testbed_, 7);
  const auto trial = runner.run(0, 0, 0.0);
  std::set<net::Prefix> seen;
  for (const auto& hop : trial.hops) {
    EXPECT_TRUE(seen.insert(hop.subnet).second) << hop.subnet.to_string();
  }
}

TEST_F(TrialFixture, PinnedDomainIsStable) {
  TrialRunner runner(&testbed_, 7);
  const auto a = runner.run(0, 0, 0.0, /*label_index=*/1);
  const auto b = runner.run(0, 0, 1.0, /*label_index=*/1);
  EXPECT_EQ(a.domain, b.domain);
}

TEST_F(TrialFixture, DownloadsMeasuredWhenEnabled) {
  TrialConfig config;
  config.measure_downloads = true;
  TrialRunner runner(&testbed_, 7, config);
  const auto trial = runner.run(0, 0, 0.0);
  for (const auto& m : trial.cr) {
    EXPECT_GT(m.download_first_ms, 0.0);
    EXPECT_GT(m.download_cached_ms, 0.0);
    // Both downloads include at least the ping-level RTT.
    EXPECT_GT(m.download_first_ms, m.rtt_ms * 0.5);
  }
}

TEST_F(TrialFixture, CampaignCoversAllPairsInTimeOrder) {
  TrialRunner runner(&testbed_, 7);
  const auto records = runner.run_campaign(/*trials_per_client=*/2, /*spacing_hours=*/2.0);
  EXPECT_EQ(records.size(), 6u * 6u * 2u);
  std::set<std::pair<std::size_t, std::string>> pairs;
  for (const auto& r : records) {
    pairs.insert({r.client_index, r.provider});
  }
  EXPECT_EQ(pairs.size(), 36u);
}

TEST_F(TrialFixture, SameSeedSameCampaign) {
  TrialRunner a(&testbed_, 99);
  Testbed other(tiny_config());
  TrialRunner b(&other, 99);
  const auto ra = a.run(1, 2, 0.5);
  const auto rb = b.run(1, 2, 0.5);
  EXPECT_EQ(ra.domain, rb.domain);
  ASSERT_EQ(ra.cr.size(), rb.cr.size());
  for (std::size_t i = 0; i < ra.cr.size(); ++i) {
    EXPECT_EQ(ra.cr[i].replica, rb.cr[i].replica);
    EXPECT_DOUBLE_EQ(ra.cr[i].rtt_ms, rb.cr[i].rtt_ms);
  }
}

// ---- probes ---------------------------------------------------------------

TEST_F(TrialFixture, PingAveragesBurst) {
  auto& world = testbed_.world();
  const auto client = testbed_.clients()[0];
  const auto target = testbed_.clients()[1];
  net::Rng rng(3);
  const double base = world.rtt_base_ms(client, target);
  double sum = 0.0;
  for (int i = 0; i < 100; ++i) sum += ping_ms(world, client, target, rng);
  EXPECT_NEAR(sum / 100.0, base, base * 0.1 + 1.0);
  PingConfig bad;
  bad.burst = 0;
  EXPECT_THROW(ping_ms(world, client, target, rng, bad), net::InvalidArgument);
}

TEST_F(TrialFixture, DownloadTimeMonotoneInRttAndSize) {
  auto& world = testbed_.world();
  const auto client = testbed_.clients()[0];
  // Find a near and a far replica by base RTT.
  net::Ipv4Addr near = testbed_.provider(0).clusters()[0].replicas[0];
  net::Ipv4Addr far = near;
  double near_ms = 1e18;
  double far_ms = 0.0;
  for (const auto& cluster : testbed_.provider(0).clusters()) {
    const double ms = world.rtt_base_ms(client, cluster.replicas[0]);
    if (ms < near_ms) {
      near_ms = ms;
      near = cluster.replicas[0];
    }
    if (ms > far_ms) {
      far_ms = ms;
      far = cluster.replicas[0];
    }
  }
  ASSERT_GT(far_ms, near_ms * 1.5);
  net::Rng rng(5);
  auto avg_download = [&](net::Ipv4Addr replica, std::uint64_t bytes, bool repeat) {
    double sum = 0.0;
    for (int i = 0; i < 60; ++i) {
      sum += download_ms(world, client, replica, bytes, repeat, rng);
    }
    return sum / 60.0;
  };
  // Lower RTT -> faster download, other things equal.
  EXPECT_LT(avg_download(near, 100'000, true), avg_download(far, 100'000, true));
  // Bigger object -> longer download.
  EXPECT_LT(avg_download(near, 10'000, true), avg_download(near, 1'000'000, true));
  // Cache-primed repeats are faster on average (no origin fetch).
  EXPECT_LT(avg_download(near, 100'000, true), avg_download(near, 100'000, false));
}

// ---- dataset persistence ----------------------------------------------------

TEST_F(TrialFixture, DatasetRoundTripsExactly) {
  TrialConfig config;
  config.measure_downloads = true;
  TrialRunner runner(&testbed_, 7, config);
  std::vector<TrialRecord> records;
  records.push_back(runner.run(0, 0, 0.0));
  records.push_back(runner.run(1, 3, 1.5));

  std::stringstream buffer;
  save_dataset(buffer, records);
  const auto loaded = load_dataset(buffer);

  ASSERT_EQ(loaded.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(loaded[i].provider, records[i].provider);
    EXPECT_EQ(loaded[i].domain, records[i].domain);
    EXPECT_EQ(loaded[i].client, records[i].client);
    ASSERT_EQ(loaded[i].cr.size(), records[i].cr.size());
    for (std::size_t j = 0; j < records[i].cr.size(); ++j) {
      EXPECT_EQ(loaded[i].cr[j].replica, records[i].cr[j].replica);
      EXPECT_NEAR(loaded[i].cr[j].rtt_ms, records[i].cr[j].rtt_ms, 1e-4);
      EXPECT_NEAR(loaded[i].cr[j].download_first_ms, records[i].cr[j].download_first_ms,
                  1e-4);
    }
    ASSERT_EQ(loaded[i].hops.size(), records[i].hops.size());
    for (std::size_t j = 0; j < records[i].hops.size(); ++j) {
      EXPECT_EQ(loaded[i].hops[j].subnet, records[i].hops[j].subnet);
      EXPECT_EQ(loaded[i].hops[j].usable, records[i].hops[j].usable);
      EXPECT_EQ(loaded[i].hops[j].hr.size(), records[i].hops[j].hr.size());
    }
  }
}

TEST(DatasetTest, RejectsMalformedInput) {
  std::stringstream missing_magic("trial|x|y|0|1.2.3.4|0|ok|\n");
  EXPECT_THROW(load_dataset(missing_magic), net::ParseError);

  std::stringstream orphan_cr("drongo-dataset-v2\ncr|1.2.3.4|5|0|0\n");
  EXPECT_THROW(load_dataset(orphan_cr), net::ParseError);

  // Eight fields, so the line fails on the number, not on the field count.
  std::stringstream bad_number("drongo-dataset-v2\ntrial|p|d|zero|1.2.3.4|0|ok|\n");
  EXPECT_THROW(load_dataset(bad_number), net::ParseError);

  std::stringstream unknown_kind("drongo-dataset-v2\nwat|1\n");
  EXPECT_THROW(load_dataset(unknown_kind), net::ParseError);

  std::stringstream empty_ok("drongo-dataset-v2\n");
  EXPECT_TRUE(load_dataset(empty_ok).empty());
}

// ---- Go-With-The-Winner: the trial's race step ----------------------------

class RaceFixture : public TrialFixture {
 protected:
  TrialRunner racing_runner(int gwtw_k, std::uint64_t seed = 7) {
    TrialConfig config;
    config.gwtw_k = gwtw_k;
    return TrialRunner(&testbed_, seed, config);
  }

  /// One trial per provider for client 0, so both one- and many-replica
  /// answers are covered.
  std::vector<TrialRecord> campaign(TrialRunner& runner) {
    std::vector<TrialRecord> records;
    for (std::size_t p = 0; p < testbed_.provider_count(); ++p) {
      records.push_back(runner.run(0, p, 1.0, 0));
    }
    return records;
  }
};

/// The dataset text of `records`. The writer keeps full precision, so equal
/// texts mean equal records.
std::string dataset_text(const std::vector<TrialRecord>& records) {
  std::ostringstream out;
  save_dataset(out, records);
  return out.str();
}

std::string magic_of(const std::vector<TrialRecord>& records) {
  const std::string text = dataset_text(records);
  return text.substr(0, text.find('\n'));
}

TEST_F(RaceFixture, SubTwoKDegeneratesToFirstReplica) {
  // k < 2 never races: the client keeps the CDN's first replica, and the
  // campaign is written in the race-free v2 format.
  for (int k : {0, 1}) {
    auto runner = racing_runner(k);
    const auto records = campaign(runner);
    for (const auto& r : records) {
      EXPECT_TRUE(r.race.empty()) << "k=" << k;
      EXPECT_EQ(r.race_winner(), 0u);
      EXPECT_TRUE(std::isinf(r.race_winner_rtt_ms()));
    }
    EXPECT_EQ(magic_of(records), "drongo-dataset-v2") << "k=" << k;
  }
}

TEST_F(RaceFixture, FieldIsClampedToTheAnswer) {
  auto runner = racing_runner(16);
  bool raced_many = false;
  for (const auto& r : campaign(runner)) {
    ASSERT_FALSE(r.cr.empty()) << r.provider;
    ASSERT_LT(r.cr.size(), 16u) << r.provider;
    ASSERT_EQ(r.race.size(), r.cr.size()) << r.provider;
    // Contestants keep the CDN's answer order.
    for (std::size_t i = 0; i < r.race.size(); ++i) {
      EXPECT_EQ(r.race[i].replica, r.cr[i].replica);
    }
    raced_many |= r.race.size() >= 2;
  }
  EXPECT_TRUE(raced_many);
}

TEST_F(RaceFixture, WinnerHasTheMinimumRtt) {
  TrialRecord r;
  for (double rtt : {30.0, 10.0, 10.0, 20.0}) {
    r.race.push_back({net::Ipv4Addr(198, 18, 0, static_cast<std::uint8_t>(rtt)), rtt});
  }
  EXPECT_EQ(r.race_winner(), 1u);  // the tie with index 2 goes to the earlier
  EXPECT_DOUBLE_EQ(r.race_winner_rtt_ms(), 10.0);
  for (auto& m : r.race) m.rtt_ms = 25.0;
  EXPECT_EQ(r.race_winner(), 0u);  // all tied: the CDN's first choice
}

TEST_F(RaceFixture, NegativeGwtwKThrows) {
  EXPECT_THROW(racing_runner(-1), net::InvalidArgument);
}

TEST_F(RaceFixture, SameRngSameRace) {
  auto a = racing_runner(3, 11);
  auto b = racing_runner(3, 11);
  const auto first = campaign(a);
  EXPECT_FALSE(first[0].race.empty());
  EXPECT_EQ(dataset_text(first), dataset_text(campaign(b)));
}

TEST_F(RaceFixture, RacingLeavesTheRestOfTheTrialUntouched) {
  // The race draws strictly after every baseline draw, so switching it on
  // changes nothing but the race standings.
  auto plain = racing_runner(0);
  auto raced = racing_runner(2);
  const auto baseline = campaign(plain);
  const auto racing = campaign(raced);
  ASSERT_EQ(baseline.size(), racing.size());
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_FALSE(racing[i].race.empty());
    TrialRecord without_race = racing[i];
    without_race.race.clear();
    EXPECT_EQ(dataset_text({without_race}), dataset_text({baseline[i]})) << i;
  }
}

TEST_F(RaceFixture, RegistryMirrorsTheTallies) {
  obs::Registry registry;
  auto runner = racing_runner(2);
  runner.set_registry(&registry);
  const auto records = campaign(runner);
  const obs::Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("measure.trial.races"), records.size());
  EXPECT_EQ(snap.histograms.at("measure.trial.race_winner_rtt_ms").count, records.size());
}

TEST_F(RaceFixture, RaceLinesRoundTripUnderTheV3Magic) {
  auto runner = racing_runner(3);
  const auto records = campaign(runner);
  EXPECT_EQ(magic_of(records), "drongo-dataset-v3");
  std::stringstream buffer(dataset_text(records));
  const auto loaded = load_dataset(buffer);
  EXPECT_EQ(dataset_text(loaded), dataset_text(records));
}

}  // namespace
}  // namespace drongo::measure
