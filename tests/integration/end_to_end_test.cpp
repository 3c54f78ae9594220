// Cross-module integration: the full Drongo story on one small Internet,
// from DNS wire bytes to measured latency wins.
#include <gtest/gtest.h>

#include <set>

#include "analysis/evaluation.hpp"
#include "analysis/prevalence.hpp"
#include "core/drongo.hpp"
#include "dns/daemon_server.hpp"
#include "dns/proxy.hpp"
#include "dns/udp.hpp"
#include "measure/testbed.hpp"

namespace drongo {
namespace {

measure::TestbedConfig small_config(std::uint64_t seed = 91) {
  measure::TestbedConfig config;
  config.as_config.tier1_count = 5;
  config.as_config.tier2_count = 14;
  config.as_config.stub_count = 70;
  config.client_count = 20;
  config.seed = seed;
  return config;
}

class EndToEndFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { testbed_ = new measure::Testbed(small_config()); }
  static void TearDownTestSuite() {
    delete testbed_;
    testbed_ = nullptr;
  }
  static measure::Testbed* testbed_;
};

measure::Testbed* EndToEndFixture::testbed_ = nullptr;

TEST_F(EndToEndFixture, ValleysExistForEveryProvider) {
  measure::TrialRunner runner(testbed_, 92);
  const auto records = runner.run_campaign(/*trials_per_client=*/4, /*spacing_hours=*/1.5);
  const auto rows = analysis::table1(records);
  ASSERT_EQ(rows.size(), 6u);
  for (const auto& row : rows) {
    EXPECT_GT(row.pct_valleys_overall, 1.0) << row.provider;
    EXPECT_GT(row.pct_routes_with_valley, 5.0) << row.provider;
  }
}

TEST_F(EndToEndFixture, AssimilatedQueriesBeatBaselineInAggregate) {
  analysis::Evaluation evaluation(testbed_, 93);
  const auto samples = evaluation.evaluate(1.0, 0.95);
  double assimilated_sum = 0.0;
  std::size_t assimilated_n = 0;
  for (const auto& s : samples) {
    if (s.assimilated) {
      assimilated_sum += s.ratio;
      ++assimilated_n;
    }
  }
  ASSERT_GT(assimilated_n, 0u);
  EXPECT_LT(assimilated_sum / static_cast<double>(assimilated_n), 1.0);
}

TEST_F(EndToEndFixture, FullDnsPathThroughProxyOverUdp) {
  // The complete deployment: Drongo in an LdnsProxy, the proxy served over
  // a REAL UDP socket, the stub resolving through it, all DNS upstream
  // through the in-memory fabric to the CDN authoritative.
  measure::TrialRunner runner(testbed_, 94);
  core::DrongoParams params;
  params.min_valley_frequency = 0.2;
  params.valley_threshold = 1.0;
  core::DrongoClient drongo(params, 95);
  const auto records = drongo.train(runner, 0, 0, 5, 12.0);
  const auto domain = dns::DnsName::must_parse(records.front().domain);

  dns::LdnsProxy proxy(&testbed_->dns_network(), testbed_->resolver_address(),
                       net::Ipv4Addr(127, 0, 0, 53), &drongo);
  dns::DaemonServerConfig config;
  config.enable_tcp = false;
  dns::DaemonServer server(&proxy, config);

  dns::UdpDnsClient udp_client(2000);
  const net::Ipv4Addr proxy_identity(198, 18, 200, 1);
  udp_client.register_endpoint(proxy_identity, server.udp_port());

  dns::StubResolver stub(&udp_client, testbed_->clients()[0], proxy_identity, 96);
  const auto result = stub.resolve_with_own_subnet(domain);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.addresses.empty());
  EXPECT_EQ(proxy.forwarded(), 1u);
  // The answer is a real replica of provider 0.
  std::set<net::Ipv4Addr> replicas;
  for (const auto& cluster : testbed_->provider(0).clusters()) {
    for (auto r : cluster.replicas) replicas.insert(r);
  }
  EXPECT_TRUE(replicas.contains(result.addresses.front()));
}

TEST_F(EndToEndFixture, CampaignsAreReproducible) {
  measure::Testbed other(small_config());
  measure::TrialRunner a(testbed_, 97);
  measure::TrialRunner b(&other, 97);
  const auto ra = a.run(3, 2, 1.0);
  const auto rb = b.run(3, 2, 1.0);
  EXPECT_EQ(ra.domain, rb.domain);
  ASSERT_EQ(ra.hops.size(), rb.hops.size());
  for (std::size_t i = 0; i < ra.hops.size(); ++i) {
    EXPECT_EQ(ra.hops[i].subnet, rb.hops[i].subnet);
    EXPECT_EQ(ra.hops[i].usable, rb.hops[i].usable);
  }
}

TEST_F(EndToEndFixture, MeasurementOverheadIsSmall) {
  // §2.4/§4.1: a window of 5 trials must suffice; count the DNS queries one
  // training run costs — they are bounded by trials x (1 + usable hops).
  auto& network = testbed_->dns_network();
  const auto before = network.exchange_count();
  measure::TrialRunner runner(testbed_, 98);
  core::DrongoClient drongo;
  const auto records = drongo.train(runner, 1, 1, 5, 12.0);
  const auto after = network.exchange_count();
  std::size_t max_hops = 0;
  for (const auto& r : records) max_hops = std::max(max_hops, r.hops.size());
  // Each logical query costs 2 transport exchanges (client->resolver,
  // resolver->authoritative); per trial: 1 CR resolution + one PTR lookup
  // per distinct hop + one HR resolution per usable hop (<= hops).
  EXPECT_LE(after - before, 2u * 5u * (1u + 2u * max_hops + 4u));
}

}  // namespace
}  // namespace drongo
