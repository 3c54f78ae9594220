// bench_hedging: graceful degradation under slow upstreams and overload.
//
// Two gated experiments plus one informational comparison:
//
//   1. Hedged upstream exchanges (dns::HedgedTransport). The same faulty
//      campaign — injected upstream timeouts plus a mid-campaign
//      authoritative outage — runs twice: once with the hedge threshold
//      pinned beyond reach (the un-hedged arm: every failed primary is a
//      failed upstream exchange) and once with a working threshold. A trial
//      records replica RTTs and download times, never the modelled upstream
//      latency, so the effect a trial can observe is rescue: a hedge that
//      answers where the primary failed. GATES: the hedged arm's upstream
//      failure share (PublicResolver failures / upstream queries) is at
//      most half the un-hedged arm's, and its share of ok trials is at
//      least kOkShareGainFloor higher.
//
//   2. CoDel admission (cdn::CodelQueue) under 2x offered load on the
//      virtual queue. The no-admission arm books every arrival and its
//      sojourn grows without bound; the CoDel arm sheds per the drop law.
//      GATE: CoDel's max sojourn stays bounded (< kCodelSojournBoundMs)
//      while the no-admission arm degrades past kNaiveSojournFloorMs.
//
//   3. Go-With-The-Winner racing (informational): the hedged campaign runs
//      with --gwtw-k-style racing enabled, and the race winner's mean RTT
//      is compared with the CDN's first choice and the oracle best replica.
//
// The hedged arm also re-runs on 8 worker threads and the dataset bytes
// plus every hedge tally must match the serial run — the determinism
// property all new paths are gated on. Exit is nonzero unless both gates
// and the determinism check pass. Writes BENCH_hedging.json.
#include <algorithm>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "cdn/codel.hpp"
#include "dns/hedge.hpp"
#include "measure/campaign.hpp"
#include "measure/dataset.hpp"
#include "net/clock.hpp"
#include "obs/bench_report.hpp"

using namespace drongo;

namespace {

constexpr double kHedgeThresholdMs = 30.0;
/// Pinned far past any modelled latency: the hedge never fires, making the
/// same transport the un-hedged control arm.
constexpr double kUnhedgedThresholdMs = 1e8;
/// Gate floors for the hedging arms: the hedged failure share may be at
/// most this fraction of the un-hedged one (measured 0.27) ...
constexpr double kFailureShareRatioCeiling = 0.5;
/// ... and the ok-trial share must rise by at least this much (measured
/// +0.161 at default scale).
constexpr double kOkShareGainFloor = 0.10;
constexpr double kCodelSojournBoundMs = 150.0;
constexpr double kNaiveSojournFloorMs = 1000.0;

/// A faulty campaign testbed: upstream timeouts on every DNS path plus one
/// authoritative dark for simulated hours [1, 4), with the resolver's
/// upstream path hedged at `hedge_threshold_ms`.
measure::TestbedConfig arm_config(int clients, double hedge_threshold_ms,
                                  net::Ipv4Addr dark_authoritative) {
  measure::TestbedConfig config = measure::TestbedConfig::planetlab();
  config.client_count = clients;
  config.fault_profile.timeout_prob = 0.18;
  config.fault_profile.loss_prob = 0.03;
  if (dark_authoritative != net::Ipv4Addr()) {
    config.fault_profile.outages.push_back({dark_authoritative, 1.0, 4.0});
  }
  config.hedge_threshold_ms = hedge_threshold_ms;
  return config;
}

struct ArmResult {
  std::string dataset_bytes;
  /// Resolver upstream exchanges that failed after hedging, over all.
  double upstream_failure_share = 0.0;
  /// Trials with outcome ok, over all trials.
  double ok_trial_share = 0.0;
  std::uint64_t exchanges = 0;
  std::uint64_t fired = 0;
  std::uint64_t wins = 0;
  std::uint64_t losses = 0;
  std::uint64_t rescued = 0;
  std::uint64_t both_failed = 0;
  std::vector<measure::TrialRecord> records;
};

ArmResult run_arm(const measure::TestbedConfig& config, int trials, int gwtw_k,
                  int threads) {
  measure::Testbed testbed(config);
  measure::TrialConfig trial_config;
  trial_config.gwtw_k = gwtw_k;
  measure::TrialRunner runner(&testbed, config.seed ^ 0x4ED6, trial_config);
  measure::ParallelCampaignRunner parallel(&runner, {.threads = threads});
  ArmResult result;
  result.records = parallel.run_campaign(trials, 1.5);
  std::ostringstream dataset;
  measure::save_dataset(dataset, result.records);
  result.dataset_bytes = dataset.str();
  const auto& resolver = testbed.resolver();
  result.upstream_failure_share = static_cast<double>(resolver.upstream_failures()) /
                                  static_cast<double>(resolver.upstream_queries());
  const auto health = measure::aggregate_health(result.records);
  result.ok_trial_share = static_cast<double>(health.ok_trials) /
                          static_cast<double>(result.records.size());
  const dns::HedgedTransport* hedged = testbed.hedged_upstream();
  result.exchanges = hedged->exchanges();
  result.fired = hedged->hedges_fired();
  result.wins = hedged->hedge_wins();
  result.losses = hedged->hedge_losses();
  result.rescued = hedged->rescued();
  result.both_failed = hedged->both_failed();
  return result;
}

}  // namespace

int main() {
  const int clients = bench::scaled(24, 10);
  const int trials = bench::scaled(6, 3);
  std::cout << "bench_hedging: " << clients << " clients x 6 providers x " << trials
            << " trials, upstream timeouts + one authoritative outage\n\n";
  const net::Stopwatch watch;

  // The outage target (an authoritative address) must be known before the
  // fault fabric is built, so a throwaway testbed with the same topology
  // seed discovers it: fault knobs do not perturb topology generation.
  net::Ipv4Addr dark;
  {
    measure::Testbed scout(arm_config(clients, kUnhedgedThresholdMs, net::Ipv4Addr()));
    dark = scout.authoritative_addresses().front();
  }

  const ArmResult unhedged =
      run_arm(arm_config(clients, kUnhedgedThresholdMs, dark), trials, 2, 1);
  const ArmResult hedged =
      run_arm(arm_config(clients, kHedgeThresholdMs, dark), trials, 2, 1);
  const ArmResult hedged_mt =
      run_arm(arm_config(clients, kHedgeThresholdMs, dark), trials, 2, 8);

  const bool failure_gate =
      unhedged.upstream_failure_share > 0.0 &&
      hedged.upstream_failure_share <=
          kFailureShareRatioCeiling * unhedged.upstream_failure_share;
  const bool ok_gate =
      hedged.ok_trial_share >= unhedged.ok_trial_share + kOkShareGainFloor;
  const bool hedge_gate = failure_gate && ok_gate;
  const bool deterministic = hedged.dataset_bytes == hedged_mt.dataset_bytes &&
                             hedged.exchanges == hedged_mt.exchanges &&
                             hedged.fired == hedged_mt.fired &&
                             hedged.wins == hedged_mt.wins &&
                             hedged.losses == hedged_mt.losses &&
                             hedged.rescued == hedged_mt.rescued &&
                             hedged.both_failed == hedged_mt.both_failed;

  std::cout << "hedging arm-to-arm (upstream failure share, ok-trial share):\n"
            << "  un-hedged: " << unhedged.upstream_failure_share * 100.0
            << "% of upstream exchanges failed, " << unhedged.ok_trial_share * 100.0
            << "% of trials ok (" << unhedged.exchanges << " exchanges)\n"
            << "  hedged:    " << hedged.upstream_failure_share * 100.0
            << "% of upstream exchanges failed, " << hedged.ok_trial_share * 100.0
            << "% of trials ok (" << hedged.exchanges << " exchanges, " << hedged.fired
            << " hedges: " << hedged.wins << " wins, " << hedged.losses << " losses, "
            << hedged.rescued << " rescued, " << hedged.both_failed
            << " dual failures)\n"
            << "  GATE hedged failure share <= " << kFailureShareRatioCeiling
            << " x un-hedged: " << (failure_gate ? "PASS" : "FAIL") << "\n"
            << "  GATE hedged ok-trial share >= un-hedged + " << kOkShareGainFloor
            << ": " << (ok_gate ? "PASS" : "FAIL") << "\n"
            << "  serial vs 8 threads byte-identical: "
            << (deterministic ? "PASS" : "FAIL") << "\n\n";

  // CoDel vs no admission at 2x offered load: one arrival every 0.5 ms,
  // each costing 1 ms of virtual service.
  cdn::CodelConfig codel_config;
  codel_config.enabled = true;
  codel_config.target_ms = 5.0;
  codel_config.interval_ms = 100.0;
  codel_config.service_cost_ms = 1.0;
  cdn::CodelQueue codel(codel_config);
  double naive_busy_until = 0.0;
  double naive_max_sojourn = 0.0;
  const int arrivals = 4000;
  for (int i = 0; i < arrivals; ++i) {
    const double now = static_cast<double>(i) * 0.5;
    codel.offer(now);
    naive_max_sojourn = std::max(naive_max_sojourn, std::max(0.0, naive_busy_until - now));
    naive_busy_until = std::max(naive_busy_until, now) + codel_config.service_cost_ms;
  }
  const auto codel_stats = codel.stats();
  const double codel_max_sojourn = codel.max_sojourn_ms();
  const bool codel_gate = codel_max_sojourn < kCodelSojournBoundMs &&
                          naive_max_sojourn >= kNaiveSojournFloorMs;
  std::cout << "codel admission at 2x load (" << arrivals << " arrivals):\n"
            << "  no admission max sojourn: " << naive_max_sojourn << " ms\n"
            << "  codel max sojourn: " << codel_max_sojourn << " ms ("
            << codel_stats.admitted << " admitted, " << codel_stats.dropped
            << " shed, " << codel_stats.sloughed << " sloughed)\n"
            << "  GATE codel sojourn < " << kCodelSojournBoundMs
            << " ms while no-admission >= " << kNaiveSojournFloorMs << " ms: "
            << (codel_gate ? "PASS" : "FAIL") << "\n\n";

  // Informational: Go-With-The-Winner standings from the hedged campaign.
  std::uint64_t races = 0;
  std::uint64_t switched = 0;
  double first_sum = 0.0;
  double winner_sum = 0.0;
  double oracle_sum = 0.0;
  for (const auto& r : hedged.records) {
    if (r.race.empty()) continue;
    ++races;
    if (r.race_winner() != 0) ++switched;
    first_sum += r.race.front().rtt_ms;
    winner_sum += r.race_winner_rtt_ms();
    oracle_sum += r.min_crm();
  }
  if (races > 0) {
    const double n = static_cast<double>(races);
    std::cout << "gwtw racing (k=2, informational): " << races << " races, " << switched
              << " switched winners; mean RTT first replica " << first_sum / n
              << " ms -> race winner " << winner_sum / n << " ms (oracle best replica "
              << oracle_sum / n << " ms)\n\n";
  }

  const double seconds = watch.seconds();
  obs::BenchReport report("hedging");
  report.set_integer("clients", clients);
  report.set_integer("trials_per_pair", trials);
  report.set_number("wall_seconds", seconds);
  report.set_number("unhedged_upstream_failure_share", unhedged.upstream_failure_share);
  report.set_number("hedged_upstream_failure_share", hedged.upstream_failure_share);
  report.set_number("unhedged_ok_trial_share", unhedged.ok_trial_share);
  report.set_number("hedged_ok_trial_share", hedged.ok_trial_share);
  report.set_integer("hedges_fired", static_cast<std::int64_t>(hedged.fired));
  report.set_integer("hedge_wins", static_cast<std::int64_t>(hedged.wins));
  report.set_integer("hedge_losses", static_cast<std::int64_t>(hedged.losses));
  report.set_integer("hedge_rescued", static_cast<std::int64_t>(hedged.rescued));
  report.set_integer("hedge_both_failed", static_cast<std::int64_t>(hedged.both_failed));
  report.set_bool("hedge_gate", hedge_gate);
  report.set_bool("identical_to_serial", deterministic);
  report.set_number("codel_max_sojourn_ms", codel_max_sojourn);
  report.set_number("naive_max_sojourn_ms", naive_max_sojourn);
  report.set_integer("codel_admitted", static_cast<std::int64_t>(codel_stats.admitted));
  report.set_integer("codel_dropped", static_cast<std::int64_t>(codel_stats.dropped));
  report.set_integer("codel_sloughed", static_cast<std::int64_t>(codel_stats.sloughed));
  report.set_bool("codel_gate", codel_gate);
  report.set_integer("gwtw_races", static_cast<std::int64_t>(races));
  report.set_integer("gwtw_switched", static_cast<std::int64_t>(switched));
  if (races > 0) {
    report.set_number("gwtw_mean_first_ms", first_sum / static_cast<double>(races));
    report.set_number("gwtw_mean_winner_ms", winner_sum / static_cast<double>(races));
  }
  const std::string report_path = report.default_path();
  report.write_file(report_path);
  std::cout << "report written to " << report_path << " (" << seconds << " s)\n";

  return (hedge_gate && codel_gate && deterministic) ? 0 : 1;
}
