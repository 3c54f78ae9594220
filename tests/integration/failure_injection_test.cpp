// Failure injection: how every layer behaves when the network misbehaves.
#include <gtest/gtest.h>

#include "core/drongo.hpp"
#include "dns/proxy.hpp"
#include "measure/testbed.hpp"
#include "net/error.hpp"

namespace drongo {
namespace {

measure::TestbedConfig tiny_config() {
  measure::TestbedConfig config;
  config.as_config.tier1_count = 4;
  config.as_config.tier2_count = 8;
  config.as_config.stub_count = 30;
  config.client_count = 4;
  config.seed = 111;
  return config;
}

TEST(FailureInjectionTest, UnreachableResolverSurfacesAsError) {
  measure::Testbed testbed(tiny_config());
  dns::StubResolver stub(&testbed.dns_network(), testbed.clients()[0],
                         net::Ipv4Addr(9, 9, 9, 9) /* nobody home */, 1);
  EXPECT_THROW(stub.resolve("img.googlecdn.sim"), net::Error);
}

TEST(FailureInjectionTest, AuthoritativeOutageYieldsRefusedNotCrash) {
  measure::Testbed testbed(tiny_config());
  // Kill one CDN's authoritative mid-operation: resolver exchange fails,
  // which the in-memory fabric reports as an error the stub surfaces.
  auto stub = testbed.make_stub(testbed.clients()[0], 2);
  const auto domain = testbed.content_names(0)[0];
  ASSERT_TRUE(stub.resolve_with_own_subnet(domain).ok());

  // Discover and unregister the authoritative address by probing which
  // registered server serves this zone: simplest is to unregister the
  // resolver itself, then the stub sees an unreachable-server error.
  testbed.dns_network().unregister_server(testbed.resolver_address());
  EXPECT_THROW(stub.resolve_with_own_subnet(domain), net::Error);
}

TEST(FailureInjectionTest, ProxySurvivesSelectorChoosingGarbageSubnet) {
  // A selector that assimilates a subnet outside the world's plan: the CDN
  // serves a generic answer; nothing throws; the client still gets replicas.
  class GarbageSelector : public dns::SubnetSelector {
   public:
    std::optional<net::Prefix> select_subnet(const dns::DnsName&,
                                             const net::Prefix&) override {
      return net::Prefix::must_parse("203.0.113.0/24");  // unknown to the world
    }
  };
  measure::Testbed testbed(tiny_config());
  GarbageSelector selector;
  dns::LdnsProxy proxy(&testbed.dns_network(), testbed.resolver_address(),
                       net::Ipv4Addr(127, 0, 0, 53), &selector);
  const net::Ipv4Addr proxy_addr(198, 18, 210, 1);
  testbed.dns_network().register_server(proxy_addr, &proxy);
  dns::StubResolver stub(&testbed.dns_network(), testbed.clients()[0], proxy_addr, 3);
  const auto result = stub.resolve_with_own_subnet(testbed.content_names(0)[0]);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(proxy.assimilated(), 1u);
}

TEST(FailureInjectionTest, TrialsTolerateUnresponsiveRoutes) {
  // Max out unresponsive hops and private first hops: trials still complete
  // and simply find fewer usable hops.
  measure::TestbedConfig config = tiny_config();
  config.world_config.unresponsive_hop_prob = 0.8;
  measure::Testbed testbed(config);
  measure::TrialRunner runner(&testbed, 4);
  const auto trial = runner.run(0, 0, 0.0);
  EXPECT_FALSE(trial.cr.empty());
  for (const auto& hop : trial.hops) {
    if (hop.usable) {
      EXPECT_FALSE(hop.hr.empty());
    }
  }
}

TEST(FailureInjectionTest, DrongoFallsBackWhenWindowsNeverFill) {
  // With every hop unresponsive there are no usable hops at all: Drongo
  // must keep resolving with the client's own subnet, never throwing.
  measure::TestbedConfig config = tiny_config();
  config.world_config.unresponsive_hop_prob = 1.0;
  measure::Testbed testbed(config);
  measure::TrialRunner runner(&testbed, 5);
  core::DrongoClient drongo;
  drongo.train(runner, 0, 0, 5, 12.0);
  auto stub = testbed.make_stub(testbed.clients()[0], 6);
  const auto result = drongo.resolve(stub, testbed.content_names(0)[0]);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(drongo.assimilated_queries(), 0u);
}

TEST(FailureInjectionTest, SpikyNetworkStillYieldsBoundedMeasurements) {
  // Extreme congestion spikes: RTT samples inflate but stay positive and
  // finite, and trials complete.
  measure::TestbedConfig config = tiny_config();
  config.world_config.spike_prob = 0.5;
  config.world_config.spike_mean_ms = 200.0;
  measure::Testbed testbed(config);
  measure::TrialRunner runner(&testbed, 7);
  const auto trial = runner.run(0, 0, 0.0);
  for (const auto& m : trial.cr) {
    EXPECT_GT(m.rtt_ms, 0.0);
    EXPECT_LT(m.rtt_ms, 10'000.0);
  }
}

// ---- Fault-policy matrix ---------------------------------------------------
//
// One parameterized body instead of ad-hoc cases: every injected fault
// policy must let a small campaign complete with every cell reported, and
// the health counters must show the policy actually bit. Policy-specific
// expectations layer on top.

struct FaultCase {
  const char* name;
  dns::FaultProfile (*profile)();  ///< built lazily, at test run time
};

// Print the policy name, not the pointers' bytes: ctest names parameterized
// cases by this value, so it must be the same on every build.
void PrintTo(const FaultCase& c, std::ostream* os) { *os << c.name; }

class FaultMatrixTest : public ::testing::TestWithParam<FaultCase> {};

TEST_P(FaultMatrixTest, CampaignDegradesGracefully) {
  measure::TestbedConfig config = tiny_config();
  config.fault_profile = GetParam().profile();
  measure::Testbed testbed(config);
  measure::TrialRunner runner(&testbed, 21);
  const auto records = runner.run_campaign(/*trials_per_client=*/2,
                                           /*spacing_hours=*/1.5);
  ASSERT_EQ(records.size(), 4u * 6u * 2u);  // no cell silently dropped
  const auto health = measure::aggregate_health(records);
  EXPECT_EQ(health.ok_trials + health.degraded_trials + health.failed_trials,
            records.size());
  // The client path coped rather than collapsing: most trials measured.
  EXPECT_GT(health.ok_trials + health.degraded_trials, records.size() / 2);
  for (const auto& r : records) {
    EXPECT_EQ(r.failed(), r.cr.empty());
    if (r.outcome != measure::TrialOutcome::kOk) {
      EXPECT_FALSE(r.failure.empty());
    }
  }
}

dns::FaultProfile loss_profile() {
  dns::FaultProfile p;
  p.loss_prob = 0.10;
  return p;
}

dns::FaultProfile truncation_profile() {
  dns::FaultProfile p;
  p.truncate_prob = 0.5;
  return p;
}

dns::FaultProfile ecs_strip_profile() {
  dns::FaultProfile p;
  p.ecs_strip_prob = 0.5;
  return p;
}

dns::FaultProfile outage_profile() {
  dns::FaultProfile p;
  // Every trial of the 2-round campaign happens before hour 4; take the
  // second round (t in [1.5, 3.5)) out for whichever server this matches —
  // addresses are assigned deterministically, so testbeds built from
  // tiny_config() place authoritative 0 at the same address every time.
  measure::Testbed probe(tiny_config());
  p.outages.push_back({probe.authoritative_addresses().at(0), 1.4, 4.0});
  return p;
}

INSTANTIATE_TEST_SUITE_P(
    Policies, FaultMatrixTest,
    ::testing::Values(FaultCase{"loss", &loss_profile},
                      FaultCase{"truncation", &truncation_profile},
                      FaultCase{"ecs_strip", &ecs_strip_profile},
                      FaultCase{"outage", &outage_profile},
                      FaultCase{"flaky", &dns::FaultProfile::flaky},
                      FaultCase{"chaos", &dns::FaultProfile::chaos}),
    [](const ::testing::TestParamInfo<FaultCase>& info) { return std::string(info.param.name); });

TEST(FaultMatrixExtrasTest, LossPolicyShowsRetriesAndTimeouts) {
  measure::TestbedConfig config = tiny_config();
  config.fault_profile = loss_profile();
  measure::Testbed testbed(config);
  measure::TrialRunner runner(&testbed, 22);
  const auto health =
      measure::aggregate_health(runner.run_campaign(2, 1.5));
  EXPECT_GT(health.totals.timeouts, 0u);
  EXPECT_GT(health.totals.retries, 0u);
  EXPECT_GT(testbed.client_faults().losses() + testbed.resolver_faults().losses(), 0u);
}

TEST(FaultMatrixExtrasTest, TruncationPolicyDrivesTcpFallbacks) {
  measure::TestbedConfig config = tiny_config();
  config.fault_profile = truncation_profile();
  measure::Testbed testbed(config);
  measure::TrialRunner runner(&testbed, 23);
  const auto health =
      measure::aggregate_health(runner.run_campaign(2, 1.5));
  EXPECT_GT(health.totals.tcp_fallbacks, 0u);
  EXPECT_EQ(health.failed_trials, 0u);  // the fallback path absorbs TC fully
  EXPECT_GT(testbed.client_faults().truncations(), 0u);
}

TEST(FaultMatrixExtrasTest, EcsStripPolicyIsInvisibleToTrialHealth) {
  // Stripping ECS never breaks resolution — it silently de-personalizes
  // answers. Trials stay ok; only the fabric's own counter betrays it.
  measure::TestbedConfig config = tiny_config();
  config.fault_profile = ecs_strip_profile();
  measure::Testbed testbed(config);
  measure::TrialRunner runner(&testbed, 24);
  const auto health =
      measure::aggregate_health(runner.run_campaign(2, 1.5));
  EXPECT_EQ(health.failed_trials, 0u);
  EXPECT_GT(testbed.client_faults().ecs_strips() + testbed.resolver_faults().ecs_strips(),
            0u);
}

TEST(FaultMatrixExtrasTest, OutagePolicyFailsOnlyTheDarkProvider) {
  measure::TestbedConfig config = tiny_config();
  config.fault_profile = outage_profile();
  measure::Testbed testbed(config);
  measure::TrialRunner runner(&testbed, 25);
  const auto records = runner.run_campaign(2, 1.5);
  const auto health = measure::aggregate_health(records);
  EXPECT_GT(health.failed_trials, 0u);
  for (const auto& r : records) {
    if (r.failed()) {
      EXPECT_EQ(r.provider, testbed.profile(0).name);
      EXPECT_GE(r.time_hours, 1.4);
    }
  }
}

}  // namespace
}  // namespace drongo
