// Crowd-shared valley store: semantics, routing clusters, peer sharing
// between DrongoClients, and the determinism contract (any contribution
// interleaving, any thread count -> identical state). The threaded stress
// test runs under the `sharing` CTest label, which the analysis matrix
// includes in its TSan stage.
#include "core/valley_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "core/drongo.hpp"
#include "measure/testbed.hpp"
#include "net/error.hpp"
#include "obs/metrics.hpp"

namespace drongo::core {
namespace {

/// A hand-built trial with one usable hop at `subnet` whose ratio is
/// hr / cr under the deployment (first/first) convention.
measure::TrialRecord make_trial(const std::string& domain, const net::Prefix& subnet,
                                double cr_ms, double hr_ms) {
  measure::TrialRecord trial;
  trial.domain = domain;
  trial.cr.push_back({net::Ipv4Addr(198, 18, 0, 1), cr_ms});
  measure::HopRecord hop;
  hop.subnet = subnet;
  hop.usable = true;
  hop.hr.push_back({net::Ipv4Addr(198, 18, 0, 2), hr_ms});
  trial.hops.push_back(hop);
  return trial;
}

const net::Prefix kValleySubnet = net::Prefix::must_parse("10.7.0.0/16");
const net::Prefix kFlatSubnet = net::Prefix::must_parse("10.9.0.0/16");

ValleyStoreParams quick_params() {
  ValleyStoreParams params;
  params.min_observations = 3;
  return params;
}

TEST(ValleyStoreTest, QualifiesOnlyWithEnoughPooledValleyObservations) {
  ValleyStore store(quick_params());
  // Two contributions: below min_observations, nothing qualifies.
  store.contribute("c1", make_trial("img.cdn", kValleySubnet, 100.0, 50.0));
  store.contribute("c1", make_trial("img.cdn", kValleySubnet, 100.0, 60.0));
  EXPECT_FALSE(store.choose("c1", "img.cdn").has_value());
  // Third valley observation crosses the threshold.
  store.contribute("c1", make_trial("img.cdn", kValleySubnet, 100.0, 70.0));
  const auto choice = store.choose("c1", "img.cdn");
  ASSERT_TRUE(choice.has_value());
  EXPECT_EQ(*choice, kValleySubnet);
}

TEST(ValleyStoreTest, NonValleyRatiosDisqualifyUnderFullValleyFrequency) {
  ValleyStore store(quick_params());  // vf = 1.0: every ratio must be a valley
  store.contribute("c1", make_trial("img.cdn", kFlatSubnet, 100.0, 50.0));
  store.contribute("c1", make_trial("img.cdn", kFlatSubnet, 100.0, 60.0));
  store.contribute("c1", make_trial("img.cdn", kFlatSubnet, 100.0, 120.0));  // not a valley
  EXPECT_FALSE(store.choose("c1", "img.cdn").has_value());
  const auto cands = store.candidates("c1", "img.cdn");
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_EQ(cands[0].observations, 3u);
  EXPECT_EQ(cands[0].valleys, 2u);
  EXPECT_FALSE(cands[0].qualified);
}

TEST(ValleyStoreTest, ClustersAndDomainsAreIsolated) {
  ValleyStore store(quick_params());
  for (int i = 0; i < 3; ++i) {
    store.contribute("c1", make_trial("img.cdn", kValleySubnet, 100.0, 50.0));
  }
  EXPECT_TRUE(store.choose("c1", "img.cdn").has_value());
  EXPECT_FALSE(store.choose("c2", "img.cdn").has_value());
  EXPECT_FALSE(store.choose("c1", "video.cdn").has_value());
  // Domains are case-insensitive, like DecisionEngine's windows.
  EXPECT_TRUE(store.choose("c1", "IMG.cdn").has_value());
}

TEST(ValleyStoreTest, FailedTrialsTeachNothing) {
  ValleyStore store(quick_params());
  for (int i = 0; i < 5; ++i) {
    auto trial = make_trial("img.cdn", kValleySubnet, 100.0, 50.0);
    trial.outcome = measure::TrialOutcome::kFailed;
    store.contribute("c1", trial);
  }
  EXPECT_FALSE(store.choose("c1", "img.cdn").has_value());
  EXPECT_EQ(store.stats().contributions, 0u);
}

TEST(ValleyStoreTest, HighestValleyFrequencyWinsTiesGoToWalkOrder) {
  ValleyStoreParams params;
  params.min_observations = 2;
  params.min_valley_frequency = 0.5;
  ValleyStore store(params);
  // kFlatSubnet: vf 1/2. kValleySubnet: vf 2/2 -> wins despite later walk
  // position (10.7 < 10.9 so kValleySubnet walks first anyway; also check
  // a true tie below).
  store.contribute("c1", make_trial("img.cdn", kFlatSubnet, 100.0, 50.0));
  store.contribute("c1", make_trial("img.cdn", kFlatSubnet, 100.0, 120.0));
  store.contribute("c1", make_trial("img.cdn", kValleySubnet, 100.0, 50.0));
  store.contribute("c1", make_trial("img.cdn", kValleySubnet, 100.0, 60.0));
  auto choice = store.choose("c1", "img.cdn");
  ASSERT_TRUE(choice.has_value());
  EXPECT_EQ(*choice, kValleySubnet);

  // A true tie (both vf = 1.0): the first subnet in canonical trie walk
  // order wins, deterministically.
  ValleyStore tied(params);
  tied.contribute("c1", make_trial("img.cdn", kFlatSubnet, 100.0, 50.0));
  tied.contribute("c1", make_trial("img.cdn", kFlatSubnet, 100.0, 50.0));
  tied.contribute("c1", make_trial("img.cdn", kValleySubnet, 100.0, 50.0));
  tied.contribute("c1", make_trial("img.cdn", kValleySubnet, 100.0, 50.0));
  choice = tied.choose("c1", "img.cdn");
  ASSERT_TRUE(choice.has_value());
  EXPECT_EQ(*choice, kValleySubnet);  // 10.7.0.0/16 < 10.9.0.0/16
}

TEST(ValleyStoreTest, RegistryMirrorsCounters) {
  obs::Registry registry;
  ValleyStore store(quick_params());
  store.set_registry(&registry);
  for (int i = 0; i < 3; ++i) {
    store.contribute("c1", make_trial("img.cdn", kValleySubnet, 100.0, 50.0));
  }
  EXPECT_TRUE(store.choose("c1", "img.cdn").has_value());
  EXPECT_FALSE(store.choose("c2", "img.cdn").has_value());
  const auto snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.counters.at("core.valley_store.contributions"), 3u);
  EXPECT_EQ(snapshot.counters.at("core.valley_store.valley_observations"), 3u);
  EXPECT_EQ(snapshot.counters.at("core.valley_store.lookups"), 2u);
  EXPECT_EQ(snapshot.counters.at("core.valley_store.shared_hits"), 1u);
  EXPECT_EQ(snapshot.counters.at("core.valley_store.shared_misses"), 1u);
}

TEST(ValleyStoreTest, RejectsDegenerateParams) {
  ValleyStoreParams bad = quick_params();
  bad.min_observations = 0;
  EXPECT_THROW(ValleyStore{bad}, net::InvalidArgument);
  bad = quick_params();
  bad.valley_threshold = 0.0;
  EXPECT_THROW(ValleyStore{bad}, net::InvalidArgument);
  bad = quick_params();
  bad.min_valley_frequency = 1.5;
  EXPECT_THROW(ValleyStore{bad}, net::InvalidArgument);
}

TEST(ValleyStoreTest, DrongoClientFallsBackToCrowdKnowledge) {
  ValleyStore store(quick_params());
  for (int i = 0; i < 3; ++i) {
    store.contribute("cluster-a", make_trial("img.cdn", kValleySubnet, 100.0, 50.0));
  }
  DrongoClient fresh;  // empty engine: no private windows at all
  fresh.share_via(&store, "cluster-a");
  const auto subnet = fresh.select_subnet(dns::DnsName::must_parse("img.cdn"),
                                          net::Prefix::must_parse("10.50.0.0/24"));
  ASSERT_TRUE(subnet.has_value());
  EXPECT_EQ(*subnet, kValleySubnet);
  EXPECT_EQ(fresh.shared_assimilations(), 1u);

  DrongoClient loner;  // not sharing: same engine state, no crowd, no subnet
  EXPECT_FALSE(loner
                   .select_subnet(dns::DnsName::must_parse("img.cdn"),
                                  net::Prefix::must_parse("10.50.0.0/24"))
                   .has_value());
}

// --- Peer sharing (§7): DrongoClients pooling trials through the store. ---

TEST(PeerShareTest, RejoiningMovesTheEngine) {
  ValleyStore store(quick_params());
  DrongoClient roamer;
  roamer.share_via(&store, "old");
  roamer.share_via(&store, "new");
  for (int i = 0; i < 3; ++i) {
    roamer.observe(make_trial("img.cdn", kValleySubnet, 100.0, 50.0));
  }
  EXPECT_TRUE(store.choose("new", "img.cdn").has_value());
  EXPECT_FALSE(store.choose("old", "img.cdn").has_value());
  // Leaving the store stops the contributions.
  roamer.share_via(nullptr, "");
  roamer.observe(make_trial("img.cdn", kValleySubnet, 100.0, 50.0));
  EXPECT_EQ(store.stats().contributions, 3u);
}

TEST(PeerShareTest, HouseholdSharingFillsTheIdleDeviceForFree) {
  // Two devices behind one /24 (the paper's "clients in the same subnet")
  // join one store cluster: device A runs the trials, device B runs none
  // and still assimilates a subnet that A's own windows qualified.
  measure::TestbedConfig config;
  config.as_config.tier1_count = 4;
  config.as_config.tier2_count = 8;
  config.as_config.stub_count = 30;
  config.client_count = 2;
  config.seed = 73;
  measure::Testbed testbed(config);
  measure::TrialRunner runner(&testbed, 74);
  const DrongoParams params;
  ValleyStore store(ValleyStoreParams{
      .valley_threshold = params.valley_threshold,
      .min_valley_frequency = params.min_valley_frequency,
      .min_observations = params.window_size,
      .convention = params.convention,
  });
  const net::Prefix household(testbed.clients()[0], 24);
  DrongoClient device_a(params, 1);
  DrongoClient device_b(params, 1);
  device_a.share_via(&store, household.to_string());
  device_b.share_via(&store, household.to_string());

  std::string domain;
  for (std::size_t t = 0; t < params.window_size; ++t) {
    const auto trial =
        runner.run(/*client=*/0, /*provider=*/0, t * 12.0, /*label_index=*/0);
    domain = trial.domain;
    device_a.observe(trial);
  }
  const auto choice = device_b.select_subnet(dns::DnsName::must_parse(domain), household);
  ASSERT_TRUE(choice.has_value());
  EXPECT_EQ(device_b.engine().tracked_windows(), 0u);
  EXPECT_EQ(device_b.shared_assimilations(), 1u);
  const auto a_candidates = device_a.engine().candidates(domain);
  EXPECT_TRUE(std::ranges::any_of(a_candidates, [&](const auto& c) {
    return c.qualified && c.subnet == *choice;
  }));
}

TEST(ValleyStoreTest, RoutingClusterKeyGroupsByTransitPath) {
  measure::TestbedConfig config;
  config.as_config.tier1_count = 4;
  config.as_config.tier2_count = 10;
  config.as_config.stub_count = 40;
  config.client_count = 8;
  config.seed = 61;
  measure::Testbed testbed(config);
  topology::World& world = testbed.world();
  const auto& clients = testbed.clients();
  ASSERT_GE(clients.size(), 2u);
  const std::vector<std::size_t> landmarks = {testbed.provider(0).as_index()};

  // Same client, same landmarks -> identical key (pure function).
  const std::string key_a = routing_cluster_key(world, clients[0], landmarks);
  EXPECT_EQ(key_a, routing_cluster_key(world, clients[0], landmarks));
  EXPECT_FALSE(key_a.empty());

  // A client in the same AS routes identically: same cluster.
  std::size_t sibling = clients.size();
  for (std::size_t i = 1; i < clients.size(); ++i) {
    if (world.as_index_of(clients[i]) == world.as_index_of(clients[0])) {
      sibling = i;
      break;
    }
  }
  if (sibling < clients.size()) {
    EXPECT_EQ(key_a, routing_cluster_key(world, clients[sibling], landmarks));
  }

  EXPECT_THROW(routing_cluster_key(world, clients[0], landmarks, 0),
               net::InvalidArgument);
  EXPECT_THROW(routing_cluster_key(world, net::Ipv4Addr(203, 0, 113, 9), landmarks),
               net::InvalidArgument);
}

// --- Concurrency: the determinism contract under real threads. -----------

/// Builds the deterministic corpus every thread plan must reduce to the
/// same store state: trials spread over clusters, domains, subnets, with a
/// mix of valley and non-valley ratios.
std::vector<std::pair<std::string, measure::TrialRecord>> shared_corpus() {
  std::vector<std::pair<std::string, measure::TrialRecord>> corpus;
  const std::vector<std::string> clusters = {"alpha", "beta", "gamma", "delta"};
  const std::vector<std::string> domains = {"img.cdn", "video.cdn"};
  for (int i = 0; i < 240; ++i) {
    const auto& cluster = clusters[static_cast<std::size_t>(i) % clusters.size()];
    const auto& domain = domains[static_cast<std::size_t>(i / 4) % domains.size()];
    const net::Prefix subnet(net::Ipv4Addr(10, static_cast<std::uint8_t>(i % 6), 0, 0),
                             16);
    const double hr = (i % 5 == 0) ? 120.0 : 40.0 + (i % 7);
    corpus.emplace_back(cluster, make_trial(domain, subnet, 100.0, hr));
  }
  return corpus;
}

/// Serializes everything observable about a store for equality checks.
std::string fingerprint(ValleyStore& store) {
  std::string out;
  const auto stats = store.stats();
#define DRONGO_FP_FIELD(field) \
  out += #field "=" + std::to_string(stats.field) + "\n";
  DRONGO_OBS_VALLEY_STORE_COUNTERS(DRONGO_FP_FIELD)
#undef DRONGO_FP_FIELD
  for (const std::string cluster : {"alpha", "beta", "gamma", "delta"}) {
    for (const std::string domain : {"img.cdn", "video.cdn"}) {
      const auto choice = store.choose(cluster, domain);
      out += cluster + "/" + domain + " -> " +
             (choice ? choice->to_string() : "none") + "\n";
      for (const auto& c : store.candidates(cluster, domain)) {
        out += "  " + c.subnet.to_string() + " obs=" + std::to_string(c.observations) +
               " valleys=" + std::to_string(c.valleys) +
               " qualified=" + std::to_string(c.qualified) + "\n";
      }
    }
  }
  return out;
}

TEST(ValleyStoreConcurrencyTest, ThreadedContributionMatchesSerialByteForByte) {
  ValleyStoreParams params;
  params.min_observations = 4;
  params.min_valley_frequency = 0.6;
  const auto corpus = shared_corpus();

  ValleyStore serial(params);
  for (const auto& [cluster, trial] : corpus) serial.contribute(cluster, trial);
  const std::string expected = fingerprint(serial);

  for (const unsigned threads : {2u, 4u, 8u}) {
    ValleyStore parallel(params);
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (unsigned w = 0; w < threads; ++w) {
      workers.emplace_back([&, w] {
        // Strided split: every thread touches every cluster, maximizing
        // stripe contention (the TSan-interesting schedule).
        for (std::size_t i = w; i < corpus.size(); i += threads) {
          parallel.contribute(corpus[i].first, corpus[i].second);
        }
      });
    }
    for (auto& worker : workers) worker.join();
    EXPECT_EQ(fingerprint(parallel), expected) << threads << " threads";
  }
}

TEST(ValleyStoreConcurrencyTest, ConcurrentReadersAndWritersKeepCountsExact) {
  ValleyStoreParams params;
  params.min_observations = 1;
  params.min_valley_frequency = 0.0;
  ValleyStore store(params, /*stripes=*/4);
  constexpr int kWriters = 4;
  constexpr int kReaders = 3;
  constexpr int kTrialsPerWriter = 150;

  std::vector<std::thread> threads;
  threads.reserve(kWriters + kReaders);
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      const std::string cluster = "cluster-" + std::to_string(w % 2);
      for (int i = 0; i < kTrialsPerWriter; ++i) {
        store.contribute(cluster, make_trial("img.cdn", kValleySubnet, 100.0, 50.0));
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      for (int i = 0; i < 60; ++i) {
        (void)store.choose("cluster-" + std::to_string(r % 2), "img.cdn");
        (void)store.candidates("cluster-" + std::to_string(r % 2), "img.cdn");
        (void)store.stats();
        (void)store.tracked_subnets();
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const auto stats = store.stats();
  EXPECT_EQ(stats.contributions,
            static_cast<std::uint64_t>(kWriters) * kTrialsPerWriter);
  EXPECT_EQ(stats.valley_observations,
            static_cast<std::uint64_t>(kWriters) * kTrialsPerWriter);
  EXPECT_EQ(store.cluster_count(), 2u);
  const auto choice = store.choose("cluster-0", "img.cdn");
  ASSERT_TRUE(choice.has_value());
  EXPECT_EQ(*choice, kValleySubnet);
}

}  // namespace
}  // namespace drongo::core
