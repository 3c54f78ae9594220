// The headline guarantee of the parallel campaign engine: a campaign run
// on 1, 2, or 8 threads produces byte-identical TrialRecord vectors, and
// the same seed reproduces the same vectors across invocations.
#include <gtest/gtest.h>

#include <string>

#include "measure/campaign.hpp"
#include "measure/testbed.hpp"
#include "measure/trial.hpp"
#include "net/error.hpp"

namespace drongo::measure {
namespace {

TestbedConfig tiny_config(std::uint64_t seed = 510) {
  TestbedConfig config;
  config.as_config.tier1_count = 4;
  config.as_config.tier2_count = 10;
  config.as_config.stub_count = 40;
  config.client_count = 6;
  config.seed = seed;
  return config;
}

/// Field-for-field exact equality. Doubles are compared with ==, not a
/// tolerance: the guarantee is bit-identical derivation, and any looseness
/// here would hide an order-dependent code path.
void expect_identical(const std::vector<TrialRecord>& a,
                      const std::vector<TrialRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    EXPECT_EQ(a[i].provider, b[i].provider);
    EXPECT_EQ(a[i].domain, b[i].domain);
    EXPECT_EQ(a[i].client_index, b[i].client_index);
    EXPECT_EQ(a[i].client, b[i].client);
    EXPECT_EQ(a[i].time_hours, b[i].time_hours);
    EXPECT_EQ(a[i].outcome, b[i].outcome);
    EXPECT_EQ(a[i].failure, b[i].failure);
    EXPECT_TRUE(a[i].health == b[i].health);
    ASSERT_EQ(a[i].cr.size(), b[i].cr.size());
    for (std::size_t j = 0; j < a[i].cr.size(); ++j) {
      EXPECT_EQ(a[i].cr[j].replica, b[i].cr[j].replica);
      EXPECT_EQ(a[i].cr[j].rtt_ms, b[i].cr[j].rtt_ms);
      EXPECT_EQ(a[i].cr[j].download_first_ms, b[i].cr[j].download_first_ms);
      EXPECT_EQ(a[i].cr[j].download_cached_ms, b[i].cr[j].download_cached_ms);
    }
    ASSERT_EQ(a[i].hops.size(), b[i].hops.size());
    for (std::size_t j = 0; j < a[i].hops.size(); ++j) {
      SCOPED_TRACE("hop " + std::to_string(j));
      EXPECT_EQ(a[i].hops[j].ip, b[i].hops[j].ip);
      EXPECT_EQ(a[i].hops[j].subnet, b[i].hops[j].subnet);
      EXPECT_EQ(a[i].hops[j].rdns, b[i].hops[j].rdns);
      EXPECT_EQ(a[i].hops[j].asn.value(), b[i].hops[j].asn.value());
      EXPECT_EQ(a[i].hops[j].usable, b[i].hops[j].usable);
      ASSERT_EQ(a[i].hops[j].hr.size(), b[i].hops[j].hr.size());
      for (std::size_t k = 0; k < a[i].hops[j].hr.size(); ++k) {
        EXPECT_EQ(a[i].hops[j].hr[k].replica, b[i].hops[j].hr[k].replica);
        EXPECT_EQ(a[i].hops[j].hr[k].rtt_ms, b[i].hops[j].hr[k].rtt_ms);
      }
    }
  }
}

/// Runs the standard campaign on a fresh testbed with the given pool size.
std::vector<TrialRecord> campaign_at(int threads, std::uint64_t runner_seed = 77,
                                     bool downloads = false) {
  Testbed testbed(tiny_config());
  TrialConfig config;
  config.measure_downloads = downloads;
  TrialRunner runner(&testbed, runner_seed, config);
  ParallelCampaignRunner parallel(&runner, {.threads = threads});
  return parallel.run_campaign(/*trials_per_client=*/3, /*spacing_hours=*/1.5);
}

TEST(ParallelCampaignTest, OneTwoAndEightThreadsAreIdentical) {
  const auto serial = campaign_at(1);
  EXPECT_EQ(serial.size(), 6u * 6u * 3u);
  expect_identical(serial, campaign_at(2));
  expect_identical(serial, campaign_at(8));
}

TEST(ParallelCampaignTest, DownloadsStayIdenticalToo) {
  // Download measurements draw extra randomness per replica; they must come
  // from the same per-trial stream.
  const auto serial = campaign_at(1, 78, /*downloads=*/true);
  expect_identical(serial, campaign_at(4, 78, /*downloads=*/true));
}

TEST(ParallelCampaignTest, SameSeedStableAcrossInvocations) {
  expect_identical(campaign_at(2), campaign_at(2));
}

TEST(ParallelCampaignTest, DifferentSeedsDiffer) {
  const auto a = campaign_at(2, 77);
  const auto b = campaign_at(2, 78);
  ASSERT_EQ(a.size(), b.size());
  bool any_difference = false;
  for (std::size_t i = 0; i < a.size() && !any_difference; ++i) {
    any_difference = a[i].domain != b[i].domain || a[i].cr.size() != b[i].cr.size() ||
                     (!a[i].cr.empty() && a[i].cr[0].rtt_ms != b[i].cr[0].rtt_ms);
  }
  EXPECT_TRUE(any_difference);
}

TEST(ParallelCampaignTest, MatchesSerialTrialRunnerCampaign) {
  // The pooled engine reproduces TrialRunner::run_campaign exactly — the
  // parallel path is a pure acceleration, not a second implementation of
  // campaign semantics.
  Testbed testbed(tiny_config());
  TrialRunner runner(&testbed, 91);
  const auto direct = runner.run_campaign(2, 2.0);

  Testbed testbed2(tiny_config());
  TrialRunner runner2(&testbed2, 91);
  ParallelCampaignRunner parallel(&runner2, {.threads = 3});
  expect_identical(direct, parallel.run_campaign(2, 2.0));
}

TEST(ParallelCampaignTest, SporadicCampaignIsDeterministicAcrossThreads) {
  Testbed serial_bed(tiny_config());
  TrialRunner serial_runner(&serial_bed, 13);
  ParallelCampaignRunner serial(&serial_runner, {.threads = 1});
  const auto a = serial.run_campaign_sporadic(3);

  Testbed pooled_bed(tiny_config());
  TrialRunner pooled_runner(&pooled_bed, 13);
  ParallelCampaignRunner pooled(&pooled_runner, {.threads = 8});
  expect_identical(a, pooled.run_campaign_sporadic(3));
}

TEST(ParallelCampaignTest, TaskListOrderDefinesOutputOrder) {
  // Records land in task order even when the tasks interleave clients in a
  // pattern no worker would execute contiguously.
  Testbed testbed(tiny_config());
  TrialRunner runner(&testbed, 55);
  std::vector<CampaignTask> tasks;
  for (int t = 0; t < 2; ++t) {
    for (std::size_t c = 0; c < 6; ++c) {
      tasks.push_back({5 - c, c % 2, static_cast<std::uint64_t>(t), 0.5 * t, std::nullopt});
    }
  }
  ParallelCampaignRunner parallel(&runner, {.threads = 4});
  const auto records = parallel.run(tasks);
  ASSERT_EQ(records.size(), tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_EQ(records[i].client_index, tasks[i].client_index);
    EXPECT_EQ(records[i].time_hours, tasks[i].time_hours);
  }
}

TEST(ParallelCampaignTest, RunTaskIsPureAndRepeatable) {
  Testbed testbed(tiny_config());
  TrialRunner runner(&testbed, 70);
  const CampaignTask task{2, 1, 4, 3.0, std::nullopt};
  const auto once = runner.run_task(task);
  // Interleave unrelated work, then repeat: same task, same record.
  (void)runner.run_task({0, 0, 0, 0.0, std::nullopt});
  const auto again = runner.run_task(task);
  expect_identical({once}, {again});
}

TEST(ParallelCampaignTest, StatefulRunAdvancesTrials) {
  // Repeated run() calls on one pair are DIFFERENT trials (the daemon's
  // training loop depends on it), and the sequence replays under the same
  // seed.
  Testbed testbed(tiny_config());
  TrialRunner runner(&testbed, 80);
  const auto first = runner.run(0, 0, 0.0, 0);
  const auto second = runner.run(0, 0, 0.0, 0);
  bool differs = first.cr.size() != second.cr.size();
  for (std::size_t i = 0; !differs && i < first.cr.size(); ++i) {
    differs = first.cr[i].rtt_ms != second.cr[i].rtt_ms;
  }
  EXPECT_TRUE(differs);

  TrialRunner replay(&testbed, 80);
  expect_identical({first, second}, {replay.run(0, 0, 0.0, 0), replay.run(0, 0, 0.0, 0)});
}

/// Runs `tasks` on a fresh testbed built from `config` with a pool of
/// `threads` workers (1 = serial in the calling thread).
std::vector<TrialRecord> run_tasks_at(const TestbedConfig& config, std::uint64_t runner_seed,
                                      const std::vector<CampaignTask>& tasks, int threads) {
  Testbed testbed(config);
  TrialRunner runner(&testbed, runner_seed);
  return ParallelCampaignRunner(&runner, {.threads = threads}).run(tasks);
}

/// The pool's unit of work is one (client, provider) pair, so a task list
/// whose units are few, uneven or full of faults must still come back
/// exactly as a serial run produces it.
void expect_pool_matches_serial(const TestbedConfig& config, std::uint64_t runner_seed,
                                const std::vector<CampaignTask>& tasks) {
  const auto serial = run_tasks_at(config, runner_seed, tasks, 1);
  ASSERT_EQ(serial.size(), tasks.size());
  for (const int threads : {2, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    expect_identical(serial, run_tasks_at(config, runner_seed, tasks, threads));
  }
}

TEST(CampaignPoolTest, OneClientCampaignMatchesSerial) {
  // Each of the client's provider pairs is a unit of its own, so even one
  // client's trials spread over the pool.
  TestbedConfig config = tiny_config();
  config.client_count = 1;
  Testbed testbed(config);
  const auto tasks = TrialRunner(&testbed, 31).campaign_tasks(4, 1.5);
  ASSERT_EQ(tasks.size(), 6u * 4u);
  expect_pool_matches_serial(config, 31, tasks);
}

TEST(CampaignPoolTest, UnevenSporadicTaskListMatchesSerial) {
  Testbed testbed(tiny_config());
  const auto sporadic = TrialRunner(&testbed, 32).sporadic_tasks(5);
  // Thin the list unevenly: pairs keep between none and all of their
  // trials, so units differ in size and some pairs have no unit at all.
  std::vector<CampaignTask> tasks;
  for (const CampaignTask& task : sporadic) {
    const std::size_t keep = (task.client_index * 7 + task.provider_index * 3) % 6;
    if (task.trial_index < keep) tasks.push_back(task);
  }
  ASSERT_GT(tasks.size(), 0u);
  ASSERT_LT(tasks.size(), sporadic.size());
  expect_pool_matches_serial(tiny_config(), 32, tasks);
}

TEST(CampaignPoolTest, ChaosFaultCampaignMatchesSerial) {
  TestbedConfig config = tiny_config();
  config.fault_profile = dns::FaultProfile::chaos();
  Testbed testbed(config);
  const auto tasks = TrialRunner(&testbed, 33).campaign_tasks(3, 1.5);
  expect_pool_matches_serial(config, 33, tasks);
  // The faults fired: the identity covers degraded and failed trials too.
  const CampaignHealth health = aggregate_health(run_tasks_at(config, 33, tasks, 4));
  EXPECT_GT(health.degraded_trials + health.failed_trials, 0u);
  EXPECT_GT(health.totals.retries, 0u);
}

TEST(ResolveThreadCountTest, KnobSemantics) {
  EXPECT_EQ(resolve_thread_count(1), 1);
  EXPECT_EQ(resolve_thread_count(7), 7);
  EXPECT_GE(resolve_thread_count(0), 1);  // hardware concurrency, at least 1
  EXPECT_THROW(resolve_thread_count(-1), net::InvalidArgument);
  EXPECT_THROW(ParallelCampaignRunner(nullptr), net::InvalidArgument);
}

}  // namespace
}  // namespace drongo::measure
