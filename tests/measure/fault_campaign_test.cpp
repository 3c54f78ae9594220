// Campaigns under fault injection: graceful degradation end to end, and the
// determinism guarantee extended to faulty runs — the same seed and fault
// plan produce byte-identical records on any thread count.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/decision.hpp"
#include "measure/campaign.hpp"
#include "measure/dataset.hpp"
#include "measure/testbed.hpp"
#include "measure/trial.hpp"
#include "net/error.hpp"

namespace drongo::measure {
namespace {

TestbedConfig tiny_config(std::uint64_t seed = 610) {
  TestbedConfig config;
  config.as_config.tier1_count = 4;
  config.as_config.tier2_count = 10;
  config.as_config.stub_count = 40;
  config.client_count = 6;
  config.seed = seed;
  return config;
}

/// The ISSUE acceptance profile: 10% loss plus an ECS-stripping recursive.
dns::FaultProfile acceptance_profile() {
  dns::FaultProfile profile;
  profile.loss_prob = 0.10;
  profile.ecs_strip_prob = 0.25;
  return profile;
}

void expect_identical(const std::vector<TrialRecord>& a,
                      const std::vector<TrialRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    EXPECT_EQ(a[i].domain, b[i].domain);
    EXPECT_EQ(a[i].outcome, b[i].outcome);
    EXPECT_EQ(a[i].failure, b[i].failure);
    EXPECT_TRUE(a[i].health == b[i].health);
    ASSERT_EQ(a[i].cr.size(), b[i].cr.size());
    for (std::size_t j = 0; j < a[i].cr.size(); ++j) {
      EXPECT_EQ(a[i].cr[j].replica, b[i].cr[j].replica);
      EXPECT_EQ(a[i].cr[j].rtt_ms, b[i].cr[j].rtt_ms);
    }
    ASSERT_EQ(a[i].hops.size(), b[i].hops.size());
    for (std::size_t j = 0; j < a[i].hops.size(); ++j) {
      EXPECT_EQ(a[i].hops[j].ip, b[i].hops[j].ip);
      EXPECT_EQ(a[i].hops[j].usable, b[i].hops[j].usable);
      ASSERT_EQ(a[i].hops[j].hr.size(), b[i].hops[j].hr.size());
      for (std::size_t k = 0; k < a[i].hops[j].hr.size(); ++k) {
        EXPECT_EQ(a[i].hops[j].hr[k].replica, b[i].hops[j].hr[k].replica);
        EXPECT_EQ(a[i].hops[j].hr[k].rtt_ms, b[i].hops[j].hr[k].rtt_ms);
      }
    }
  }
}

std::vector<TrialRecord> faulty_campaign_at(int threads, dns::FaultProfile profile,
                                            std::uint64_t runner_seed = 177) {
  TestbedConfig config = tiny_config();
  config.fault_profile = std::move(profile);
  Testbed testbed(config);
  TrialRunner runner(&testbed, runner_seed);
  ParallelCampaignRunner parallel(&runner, {.threads = threads});
  return parallel.run_campaign(/*trials_per_client=*/3, /*spacing_hours=*/1.5);
}

TEST(FaultCampaignTest, AcceptanceProfileCompletesWithHealthSignal) {
  // The ISSUE acceptance criterion: under 10% loss + ECS stripping the
  // campaign completes without throwing, every cell yields a record, and
  // the health counters show the client path actually coped (retries fired)
  // rather than never being exercised.
  const auto records = faulty_campaign_at(1, acceptance_profile());
  EXPECT_EQ(records.size(), 6u * 6u * 3u);
  const auto health = aggregate_health(records);
  EXPECT_EQ(health.ok_trials + health.degraded_trials + health.failed_trials,
            records.size());
  EXPECT_GT(health.ok_trials, 0u);
  EXPECT_GT(health.totals.retries, 0u);
  EXPECT_GT(health.totals.timeouts, 0u);
  // Failed trials carry their cause and no measurements; others have CRs.
  for (const auto& r : records) {
    if (r.failed()) {
      EXPECT_FALSE(r.failure.empty());
      EXPECT_TRUE(r.cr.empty());
    } else {
      EXPECT_FALSE(r.cr.empty());
    }
  }
}

TEST(FaultCampaignTest, FaultyRunsAreIdenticalAcrossThreadCounts) {
  // Determinism under fire: fault draws are pure functions of the exchange,
  // so the records — including which trials failed, and every health
  // counter — must match between a serial and a pooled run.
  const auto serial = faulty_campaign_at(1, acceptance_profile());
  expect_identical(serial, faulty_campaign_at(4, acceptance_profile()));
  expect_identical(serial, faulty_campaign_at(8, acceptance_profile()));
}

TEST(FaultCampaignTest, ChaosProfileStaysDeterministicToo) {
  // All pathologies at once (including truncation -> TCP fallback and
  // scope-zero) on 1 vs 6 threads.
  const auto serial = faulty_campaign_at(1, dns::FaultProfile::chaos(), 178);
  expect_identical(serial, faulty_campaign_at(6, dns::FaultProfile::chaos(), 178));
}

TEST(FaultCampaignTest, HarshLossProducesRecordedFailuresNotThrows) {
  dns::FaultProfile harsh;
  harsh.loss_prob = 0.55;  // beyond any retry budget's ability to always save
  const auto records = faulty_campaign_at(1, harsh, 179);
  const auto health = aggregate_health(records);
  EXPECT_EQ(records.size(), 6u * 6u * 3u);  // every cell still reported
  EXPECT_GT(health.failed_trials, 0u);
  EXPECT_GT(health.totals.failed_queries, 0u);
  // Retries also *saved* trials: not everything that drew a loss failed.
  EXPECT_GT(health.ok_trials + health.degraded_trials, 0u);
}

TEST(FaultCampaignTest, TruncationForcesTcpFallbackThatSavesTheTrial) {
  dns::FaultProfile profile;
  profile.truncate_prob = 1.0;  // EVERY UDP answer truncated
  const auto records = faulty_campaign_at(1, profile, 180);
  const auto health = aggregate_health(records);
  // With a working TCP channel the campaign is unharmed: all trials ok,
  // every resolution went over the fallback.
  EXPECT_EQ(health.ok_trials, records.size());
  EXPECT_GT(health.totals.tcp_fallbacks, 0u);
  for (const auto& r : records) EXPECT_FALSE(r.cr.empty());
}

TEST(FaultCampaignTest, AuthoritativeOutageWindowFailsOnlyThatWindow) {
  TestbedConfig config = tiny_config();
  Testbed probe_bed(config);  // to learn the authoritative address
  const net::Ipv4Addr auth0 = probe_bed.authoritative_addresses().at(0);

  config.fault_profile.outages.push_back({auth0, 1.0, 3.0});
  Testbed testbed(config);
  TrialRunner runner(&testbed, 181);
  ParallelCampaignRunner parallel(&runner, {.threads = 2});
  const auto records = parallel.run_campaign(/*trials_per_client=*/3,
                                             /*spacing_hours=*/1.5);

  bool failed_inside = false;
  for (const auto& r : records) {
    const bool in_window = r.time_hours >= 1.0 && r.time_hours < 3.0;
    if (r.failed()) {
      // Only provider 0's trials inside the outage window may fail, and
      // they fail through the resolver answering SERVFAIL for a dead
      // authoritative — recorded, never thrown.
      EXPECT_TRUE(in_window) << "failure outside the outage window at t="
                             << r.time_hours;
      EXPECT_EQ(r.provider, testbed.profile(0).name);
      EXPECT_GT(r.health.server_failures, 0u);
      failed_inside = true;
    }
  }
  EXPECT_TRUE(failed_inside);
  EXPECT_GT(testbed.resolver_faults().outage_hits(), 0u);
}

TEST(FaultCampaignTest, DatasetRoundTripsOutcomeAndHealth) {
  dns::FaultProfile harsh;
  harsh.loss_prob = 0.45;
  const auto records = faulty_campaign_at(1, harsh, 182);
  std::stringstream buffer;
  save_dataset(buffer, records);
  const auto reloaded = load_dataset(buffer);
  ASSERT_EQ(reloaded.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(reloaded[i].outcome, records[i].outcome);
    EXPECT_EQ(reloaded[i].failure, records[i].failure);
    EXPECT_TRUE(reloaded[i].health == records[i].health);
  }
  EXPECT_TRUE(aggregate_health(reloaded) == aggregate_health(records));
}

TEST(FaultCampaignTest, V1DatasetsAreRejected) {
  // v1 had no outcome/failure fields; only v2 and v3 (what the writer
  // emits) load.
  std::stringstream v1;
  v1 << "drongo-dataset-v1\n"
     << "trial|cdn-a|img.cdn.sim|3|20.1.36.10|1.5\n"
     << "cr|21.0.0.1|12.5|0|0\n";
  EXPECT_THROW(load_dataset(v1), net::ParseError);
}

TEST(FaultCampaignTest, DecisionEngineSkipsFailedTrialsAndCountsThem) {
  dns::FaultProfile harsh;
  harsh.loss_prob = 0.55;
  const auto records = faulty_campaign_at(1, harsh, 183);
  const auto health = aggregate_health(records);
  ASSERT_GT(health.failed_trials, 0u);

  core::DecisionEngine engine;
  for (const auto& r : records) engine.observe(r);
  EXPECT_EQ(engine.skipped_trials(), health.failed_trials);
  // Surviving trials still train windows; choose() keeps working (whether
  // or not anything qualifies) instead of crashing on gappy data.
  for (const auto& r : records) {
    if (!r.failed()) {
      (void)engine.choose(r.domain);
    }
  }
}

TEST(FaultCampaignTest, EcsHostileResolverNeutralizesAssimilationGracefully) {
  // When the recursive strips EVERY ECS option, assimilated answers are
  // tailored to the client's own address: HR sets mirror CR sets and Drongo
  // simply gains nothing — trials stay ok, nothing throws.
  const auto records =
      faulty_campaign_at(1, dns::FaultProfile::ecs_hostile(), 184);
  const auto health = aggregate_health(records);
  EXPECT_EQ(health.failed_trials, 0u);
  for (const auto& r : records) EXPECT_FALSE(r.cr.empty());
}

}  // namespace
}  // namespace drongo::measure
