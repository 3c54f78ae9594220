// LPM + crowd-sharing bench: the two performance claims behind the radix
// scope index and the shared valley store, each enforced as a hard gate.
//
// Gate 1 (index speed): longest-prefix matching over 10k cached scopes via
// the radix trie must be at least 2x faster per lookup than the linear scan
// it replaced (the per-qname flat map the cache used before). Both sides
// run the same deterministic prefix set and query stream; only per-lookup
// time differs.
//
// Gate 2 (crowd sharing): one deterministic campaign, three arms. The
// full-training loner trains a private window on every trial it can afford
// (5/pair); the lean loner cuts that budget to 2/pair; the shared arm
// spends the same lean budget but also pools those trials into a
// routing-clustered ValleyStore and falls back to it when its own window
// is inconclusive. Sharing must (a) reach at least the lean loner's
// affected-client coverage — the crowd recovers what the cut budget lost —
// and (b) hold the full-training loner's latency gain among affected
// clients, while contributing strictly fewer training trials per client.
// This is the §7 "crowd-sourced Drongo" claim: shared knowledge amortizes
// the measurement cost across routing-congruent clients.
//
// Exit is nonzero if either gate fails. Results land in BENCH_lpm.json.
#include <algorithm>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/render.hpp"
#include "bench_common.hpp"
#include "core/decision.hpp"
#include "core/valley_store.hpp"
#include "measure/campaign.hpp"
#include "net/clock.hpp"
#include "net/lpm.hpp"
#include "net/rng.hpp"
#include "obs/bench_report.hpp"

using namespace drongo;

namespace {

constexpr std::size_t kScopes = 10'000;
constexpr int kRadixPasses = 64;
constexpr int kNaivePasses = 2;

/// The structure the radix index replaced: all scopes for one qname in a
/// flat ordered map, longest containing prefix found by scanning every
/// entry. Kept here as the bench baseline (the tests keep their own copy as
/// the differential-model reference).
struct LinearScanIndex {
  std::map<net::Prefix, int> entries;

  [[nodiscard]] const int* longest_match(net::Ipv4Addr addr) const {
    const int* best = nullptr;
    int best_length = -1;
    for (const auto& [prefix, value] : entries) {
      if (static_cast<int>(prefix.length()) > best_length &&
          prefix.contains(addr)) {
        best_length = static_cast<int>(prefix.length());
        best = &value;
      }
    }
    return best;
  }
};

/// Deterministic scope set: ECS-realistic lengths (weighted toward /16../24,
/// with /0 and a tail of longer scopes) over clustered networks so lookups
/// hit real chains.
std::vector<net::Prefix> make_scopes(net::Rng& rng) {
  std::vector<net::Prefix> scopes;
  std::set<std::pair<std::uint32_t, int>> seen;
  while (scopes.size() < kScopes) {
    const int roll = static_cast<int>(rng.uniform(100));
    int length = 0;
    if (roll < 2) {
      length = 0;
    } else if (roll < 20) {
      length = static_cast<int>(rng.uniform_range(8, 15));
    } else if (roll < 85) {
      length = static_cast<int>(rng.uniform_range(16, 24));
    } else {
      length = static_cast<int>(rng.uniform_range(25, 32));
    }
    // Cluster networks into 256 /8-ish neighborhoods so prefixes nest.
    const std::uint32_t base = static_cast<std::uint32_t>(rng.uniform(256)) << 24;
    const std::uint32_t addr =
        base | static_cast<std::uint32_t>(rng.uniform(1u << 24));
    const net::Prefix prefix(net::Ipv4Addr(addr), length);
    if (seen.insert({prefix.network().to_uint(), length}).second) {
      scopes.push_back(prefix);
    }
  }
  return scopes;
}

/// Query stream biased into the covered space: 3 in 4 queries land inside a
/// known scope (the cache-hit shape), the rest are uniform misses.
std::vector<net::Ipv4Addr> make_queries(net::Rng& rng,
                                        const std::vector<net::Prefix>& scopes) {
  std::vector<net::Ipv4Addr> queries;
  queries.reserve(4096);
  for (std::size_t i = 0; i < 4096; ++i) {
    if (rng.chance(0.75)) {
      const auto& scope = scopes[static_cast<std::size_t>(rng.uniform(scopes.size()))];
      // A shift by 32 is undefined; a /32 scope has no host bits.
      const std::uint32_t host_mask =
          scope.length() >= 32 ? 0u : (0xFFFFFFFFu >> scope.length());
      queries.emplace_back(scope.network().to_uint() |
                           (static_cast<std::uint32_t>(rng.next_u64()) & host_mask));
    } else {
      queries.emplace_back(static_cast<std::uint32_t>(rng.next_u64()));
    }
  }
  return queries;
}

struct IndexTimings {
  double radix_ns_per_lookup = 0.0;
  double naive_ns_per_lookup = 0.0;
  double speedup = 0.0;
  std::uint64_t radix_matches = 0;
  std::uint64_t naive_matches = 0;
};

IndexTimings time_indexes() {
  net::Rng rng(0x10A);
  const auto scopes = make_scopes(rng);
  const auto queries = make_queries(rng, scopes);

  net::IpLpmTrie<int> trie;
  LinearScanIndex naive;
  for (std::size_t i = 0; i < scopes.size(); ++i) {
    trie.insert(scopes[i], static_cast<int>(i));
    naive.entries.emplace(scopes[i], static_cast<int>(i));
  }

  IndexTimings timings;
  {
    const net::Stopwatch watch;
    for (int pass = 0; pass < kRadixPasses; ++pass) {
      for (const auto addr : queries) {
        if (trie.longest_match(addr, 32).has_value()) ++timings.radix_matches;
      }
    }
    timings.radix_ns_per_lookup =
        watch.seconds() * 1e9 /
        (static_cast<double>(kRadixPasses) * static_cast<double>(queries.size()));
  }
  {
    const net::Stopwatch watch;
    for (int pass = 0; pass < kNaivePasses; ++pass) {
      for (const auto addr : queries) {
        if (naive.longest_match(addr) != nullptr) ++timings.naive_matches;
      }
    }
    timings.naive_ns_per_lookup =
        watch.seconds() * 1e9 /
        (static_cast<double>(kNaivePasses) * static_cast<double>(queries.size()));
  }
  // Both sides must agree on what matched — a fast wrong index is no index.
  if (timings.radix_matches / static_cast<std::uint64_t>(kRadixPasses) !=
      timings.naive_matches / static_cast<std::uint64_t>(kNaivePasses)) {
    std::cout << "FAIL: radix and linear scan disagree on match counts\n";
    std::exit(1);
  }
  timings.speedup = timings.naive_ns_per_lookup / timings.radix_ns_per_lookup;
  return timings;
}

// ---- Gate 2: crowd-shared valley store vs loner training ------------------

struct ArmOutcome {
  int training_per_pair = 0;     ///< trials each client spends per provider
  double affected_fraction = 0;  ///< clients with >= 1 assimilated test query
  double gain = 0.0;             ///< 1 - mean assimilated latency ratio
  std::uint64_t assimilated = 0;
};

struct SharingCampaign {
  std::unique_ptr<measure::Testbed> testbed;
  /// campaign[c][p]: the full per-pair trial sequence, training then test.
  std::vector<std::vector<std::vector<measure::TrialRecord>>> campaign;
  /// clusters[c][p]: the client's routing cluster toward provider p. One
  /// landmark per key — valleys are provider-specific, and a single-landmark
  /// key is coarse enough that clusters hold several clients each, which is
  /// what makes pooling pay.
  std::vector<std::vector<std::string>> clusters;
  std::size_t clients = 0;
  std::size_t providers = 0;
};

constexpr int kFullTraining = 5;
constexpr int kSharedTraining = 2;
constexpr int kTestTrials = 3;

SharingCampaign run_sharing_campaign() {
  SharingCampaign out;
  measure::TestbedConfig config = measure::TestbedConfig::planetlab();
  config.client_count = bench::scaled(95, 40);
  out.testbed = std::make_unique<measure::Testbed>(config);
  out.clients = out.testbed->clients().size();
  out.providers = out.testbed->provider_count();

  measure::TrialRunner runner(out.testbed.get(), 0x10A2);
  std::vector<measure::CampaignTask> tasks;
  constexpr int kTotal = kFullTraining + kTestTrials;
  tasks.reserve(out.clients * out.providers * kTotal);
  for (std::size_t c = 0; c < out.clients; ++c) {
    for (std::size_t p = 0; p < out.providers; ++p) {
      for (int t = 0; t < kTotal; ++t) {
        // Domain pinned per provider (label 0) so cluster members pool
        // observations on the same name.
        tasks.push_back({c, p, static_cast<std::uint64_t>(t), t * 12.0,
                         /*label_index=*/0});
      }
    }
  }
  measure::ParallelCampaignRunner parallel(&runner,
                                           {.threads = bench::thread_count()});
  auto records = parallel.run(tasks);
  out.campaign.resize(out.clients);
  for (auto& per_client : out.campaign) per_client.resize(out.providers);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    out.campaign[tasks[i].client_index][tasks[i].provider_index].push_back(
        std::move(records[i]));
  }

  out.clusters.resize(out.clients);
  for (std::size_t c = 0; c < out.clients; ++c) {
    out.clusters[c].reserve(out.providers);
    for (std::size_t p = 0; p < out.providers; ++p) {
      out.clusters[c].push_back(core::routing_cluster_key(
          out.testbed->world(), out.testbed->clients()[c],
          {out.testbed->provider(p).as_index()}, /*depth=*/1));
    }
  }
  return out;
}

core::DrongoParams engine_params(int window) {
  core::DrongoParams params;
  // The paper's high-confidence operating point (§5.1): only consistent
  // valleys assimilate, so the gain among affected clients is real.
  params.valley_threshold = 0.95;
  params.min_valley_frequency = 1.0;
  params.window_size = static_cast<std::size_t>(window);
  return params;
}

/// Scores one test trial against a chosen subnet exactly the way
/// analysis::Evaluation does: the trial is affected only when the chosen
/// subnet appeared on the test trial's routes with a computable ratio.
bool score_trial(const measure::TrialRecord& trial,
                 const std::optional<net::Prefix>& chosen, double* ratio_out) {
  if (!chosen) return false;
  for (const auto& hop : trial.hops) {
    if (hop.subnet == *chosen && !hop.hr.empty() && !trial.cr.empty()) {
      const auto ratio =
          core::latency_ratio(trial, hop, core::RatioConvention::deployment());
      if (ratio) {
        *ratio_out = *ratio;
        return true;
      }
    }
  }
  return false;
}

/// Runs one arm over the shared campaign. `training` trials per pair feed
/// each client's own engine; when `store` is non-null the SAME trials also
/// feed the client's cluster, and choose() falls back to the store when the
/// private window is inconclusive (the DrongoClient::share_via data flow).
ArmOutcome run_arm(const SharingCampaign& campaign, int training, int window,
                   core::ValleyStore* store) {
  ArmOutcome outcome;
  outcome.training_per_pair = training;
  if (store != nullptr) {
    for (std::size_t c = 0; c < campaign.clients; ++c) {
      for (std::size_t p = 0; p < campaign.providers; ++p) {
        const auto& trials = campaign.campaign[c][p];
        for (int t = 0; t < training; ++t) {
          store->contribute(campaign.clusters[c][p],
                            trials[static_cast<std::size_t>(t)]);
        }
      }
    }
  }
  std::set<std::size_t> affected;
  double ratio_sum = 0.0;
  for (std::size_t c = 0; c < campaign.clients; ++c) {
    for (std::size_t p = 0; p < campaign.providers; ++p) {
      const auto& trials = campaign.campaign[c][p];
      core::DecisionEngine engine(engine_params(window),
                                  (c + 1) * 1000003ULL + p);
      for (int t = 0; t < training; ++t) {
        engine.observe(trials[static_cast<std::size_t>(t)]);
      }
      for (std::size_t t = kFullTraining; t < trials.size(); ++t) {
        const auto& trial = trials[t];
        auto chosen = engine.choose(trial.domain);
        if (!chosen && store != nullptr) {
          chosen = store->choose(campaign.clusters[c][p], trial.domain);
        }
        double ratio = 1.0;
        if (score_trial(trial, chosen, &ratio)) {
          affected.insert(c);
          ratio_sum += ratio;
          ++outcome.assimilated;
        }
      }
    }
  }
  outcome.affected_fraction =
      campaign.clients == 0
          ? 0.0
          : static_cast<double>(affected.size()) / static_cast<double>(campaign.clients);
  if (outcome.assimilated > 0) {
    outcome.gain = 1.0 - ratio_sum / static_cast<double>(outcome.assimilated);
  }
  return outcome;
}

}  // namespace

int main() {
  std::cout << "LPM index + crowd-shared valley store bench\n\n";

  const IndexTimings timings = time_indexes();

  SharingCampaign campaign = run_sharing_campaign();
  const ArmOutcome loner =
      run_arm(campaign, kFullTraining, kFullTraining, nullptr);
  // The lean loner keeps the paper's qualification window (a full window
  // of consistent valleys) — it simply cannot afford to fill it, which is
  // exactly the client the crowd store exists for.
  const ArmOutcome lean =
      run_arm(campaign, kSharedTraining, kFullTraining, nullptr);
  core::ValleyStoreParams store_params;
  store_params.valley_threshold = 0.95;
  store_params.min_valley_frequency = 1.0;
  store_params.min_observations = 4;
  core::ValleyStore store(store_params);
  const ArmOutcome shared =
      run_arm(campaign, kSharedTraining, kFullTraining, &store);

  std::vector<std::vector<std::string>> cells;
  cells.push_back({"radix ns/lookup (10k scopes)",
                   analysis::fmt(timings.radix_ns_per_lookup, 1)});
  cells.push_back({"linear scan ns/lookup",
                   analysis::fmt(timings.naive_ns_per_lookup, 1)});
  cells.push_back({"index speedup", analysis::fmt(timings.speedup, 1) +
                                        "x (need >= 2x)"});
  cells.push_back({"loner: training trials/pair, affected, gain",
                   std::to_string(loner.training_per_pair) + ", " +
                       analysis::fmt(loner.affected_fraction * 100.0, 1) + "%, " +
                       analysis::fmt(loner.gain * 100.0, 1) + "%"});
  cells.push_back({"lean loner: training trials/pair, affected, gain",
                   std::to_string(lean.training_per_pair) + ", " +
                       analysis::fmt(lean.affected_fraction * 100.0, 1) + "%, " +
                       analysis::fmt(lean.gain * 100.0, 1) + "%"});
  cells.push_back({"shared: training trials/pair, affected, gain",
                   std::to_string(shared.training_per_pair) + ", " +
                       analysis::fmt(shared.affected_fraction * 100.0, 1) + "%, " +
                       analysis::fmt(shared.gain * 100.0, 1) + "%"});
  cells.push_back({"store clusters / pooled subnets",
                   std::to_string(store.cluster_count()) + " / " +
                       std::to_string(store.tracked_subnets())});
  std::cout << analysis::render_table("LPM + sharing", {"Metric", "Value"}, cells);

  obs::BenchReport report("lpm");
  report.set_integer("scopes", static_cast<std::int64_t>(kScopes));
  report.set_number("radix_ns_per_lookup", timings.radix_ns_per_lookup);
  report.set_number("naive_ns_per_lookup", timings.naive_ns_per_lookup);
  report.set_number("index_speedup", timings.speedup);
  report.set_integer("loner_training_per_pair", loner.training_per_pair);
  report.set_integer("shared_training_per_pair", shared.training_per_pair);
  report.set_number("loner_affected_fraction", loner.affected_fraction);
  report.set_number("lean_affected_fraction", lean.affected_fraction);
  report.set_number("lean_gain", lean.gain);
  report.set_number("shared_affected_fraction", shared.affected_fraction);
  report.set_number("loner_gain", loner.gain);
  report.set_number("shared_gain", shared.gain);
  report.set_integer("loner_assimilated",
                     static_cast<std::int64_t>(loner.assimilated));
  report.set_integer("shared_assimilated",
                     static_cast<std::int64_t>(shared.assimilated));
  report.set_integer("store_clusters",
                     static_cast<std::int64_t>(store.cluster_count()));
  report.set_integer("store_tracked_subnets",
                     static_cast<std::int64_t>(store.tracked_subnets()));
  const std::string out = report.default_path();
  report.write_file(out);
  std::cout << "\nwrote " << out << "\n";

  bool ok = true;
  if (timings.speedup < 2.0) {
    std::cout << "FAIL: radix index only " << analysis::fmt(timings.speedup, 2)
              << "x faster than the linear scan (< 2x)\n";
    ok = false;
  }
  if (shared.training_per_pair >= loner.training_per_pair) {
    std::cout << "FAIL: sharing did not reduce per-client training trials\n";
    ok = false;
  }
  // At the lean budget, the crowd must recover coverage: an affected set
  // no smaller than what the lean loner manages on its own.
  if (shared.affected_fraction < lean.affected_fraction) {
    std::cout << "FAIL: sharing shrank the affected-client fraction ("
              << analysis::fmt(shared.affected_fraction * 100.0, 1) << "% < lean "
              << analysis::fmt(lean.affected_fraction * 100.0, 1) << "%)\n";
    ok = false;
  }
  // And it must actually add clients beyond what the lean budget alone
  // reaches — otherwise the store contributed nothing.
  if (shared.affected_fraction <= lean.affected_fraction) {
    std::cout << "FAIL: sharing added no affected clients over the lean loner\n";
    ok = false;
  }
  // "Equal-or-better affected-client gain": the latency gain affected
  // clients see must hold up against the FULL-training loner (tiny epsilon
  // absorbs mean jitter from the changed sample mix).
  if (shared.gain < loner.gain - 0.01) {
    std::cout << "FAIL: sharing degraded the affected-client gain ("
              << analysis::fmt(shared.gain * 100.0, 1) << "% < "
              << analysis::fmt(loner.gain * 100.0, 1) << "%)\n";
    ok = false;
  }
  return ok ? 0 : 1;
}
