// drongo_sim: the repository's command-line front door.
//
//   drongo_sim <command> [options]
//
// Commands: world, trial, campaign, analyze, sweep, probe, serve, help.
// Every command builds the same deterministic simulated Internet from its
// --seed, so outputs are reproducible and composable (campaign writes a
// dataset file that analyze reads back).
#include <chrono>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <thread>

#include "analysis/evaluation.hpp"
#include "analysis/prevalence.hpp"
#include "analysis/render.hpp"
#include "cli.hpp"
#include "core/drongo.hpp"
#include "core/probe.hpp"
#include "core/valley_store.hpp"
#include "dns/daemon_server.hpp"
#include "dns/faults.hpp"
#include "dns/hedge.hpp"
#include "dns/proxy.hpp"
#include "measure/campaign.hpp"
#include "measure/dataset.hpp"
#include "measure/trial.hpp"
#include "net/error.hpp"
#include "net/ipaddr.hpp"
#include "net/strings.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"

using namespace drongo;

namespace {

/// The ECS wire-family policy for every stub the testbed creates:
/// --ecs-family / --ecs-v6-source-len.
dns::EcsFamilyPolicy ecs_policy_from(const tools::OptionSet& options) {
  dns::EcsFamilyPolicy policy;
  const auto family = options.get_int("ecs-family");
  if (family != 1 && family != 2) {
    throw net::InvalidArgument("--ecs-family must be 1 (IPv4) or 2 (IPv6)");
  }
  policy.family = static_cast<std::uint16_t>(family);
  const auto source_len = options.get_int("ecs-v6-source-len");
  if (source_len < 1 || source_len > 128) {
    throw net::InvalidArgument("--ecs-v6-source-len must be in [1, 128]");
  }
  policy.v6_source_length = static_cast<int>(source_len);
  return policy;
}

/// The testbed every command builds: the --scale preset, with --seed (when
/// given) replacing the preset's world seed. Commands derive their runner
/// seeds from the returned config.seed, so a preset run without --seed and
/// the same run with the preset's seed spelled out are one run.
measure::TestbedConfig testbed_config(const tools::OptionSet& options) {
  measure::TestbedConfig config = options.get("scale") == "ripe"
                                      ? measure::TestbedConfig::ripe_atlas()
                                      : measure::TestbedConfig::planetlab();
  if (!options.get("seed").empty()) {
    config.seed = static_cast<std::uint64_t>(options.get_int("seed"));
  }
  if (options.get_int("clients") > 0) {
    config.client_count = static_cast<int>(options.get_int("clients"));
  }
  // --fault-profile names the base; the DRONGO_FAULT_* probability knobs
  // (no flag spells them) then override single dials.
  config.fault_profile =
      dns::fault_profile_from_env(dns::parse_fault_profile(options.get("fault-profile")));
  // Serving-path knobs: --resolver-shards N (> 0) turns the resolver's
  // sharded scoped answer cache on; --coalesce adds singleflight.
  const auto shards = options.get_int("resolver-shards");
  if (shards < 0) throw net::InvalidArgument("--resolver-shards must be >= 0");
  if (shards > 0) {
    config.serving.enable_cache = true;
    config.serving.shards = static_cast<std::size_t>(shards);
  }
  config.serving.coalesce = options.get_flag("coalesce");
  // Hedged upstream exchanges: --hedge-threshold-ms > 0 arms the decorator
  // at that pinned threshold (malformed values fail loudly here, before any
  // campaign time is spent).
  const double hedge_threshold = options.get_double("hedge-threshold-ms");
  if (!(hedge_threshold >= 0)) {
    throw net::InvalidArgument("--hedge-threshold-ms must be >= 0");
  }
  config.hedge_threshold_ms = hedge_threshold;
  // CoDel admission control: --codel-target-ms > 0 arms overload shedding
  // in front of the resolver's serving path.
  const double codel_target = options.get_double("codel-target-ms");
  if (codel_target < 0) throw net::InvalidArgument("--codel-target-ms must be >= 0");
  if (codel_target > 0) {
    config.serving.overload.enabled = true;
    config.serving.overload.target_ms = codel_target;
    config.serving.overload.interval_ms = options.get_double("codel-interval-ms");
  }
  config.ecs_policy = ecs_policy_from(options);
  return config;
}

void add_common(tools::OptionSet& options) {
  options.add_option("seed", "",
                     "deterministic seed for the simulated Internet "
                     "(empty = the scale's own: planetlab 42, ripe 1729)");
  options.add_option("clients", "0", "client count (0 = scale default)");
  options.add_option("scale", "planetlab", "testbed scale: planetlab | ripe");
  options.add_option("fault-profile", "none",
                     "DNS fault injection: none | lossy | flaky | ecs-hostile | chaos");
  options.add_option("resolver-shards", "0",
                     "resolver serving cache: N lock-striped shards (0 = cache off)");
  options.add_flag("coalesce",
                   "coalesce concurrent identical resolver queries (singleflight)");
  options.add_option("hedge-threshold-ms", "0",
                     "hedge the resolver's upstream exchanges past this many ms "
                     "(0 = no hedging)");
  options.add_option("codel-target-ms", "0",
                     "CoDel admission target sojourn in ms (0 = admission off)");
  options.add_option("codel-interval-ms", "100", "CoDel admission interval in ms");
  options.add_option("ecs-family", "1",
                     "ECS wire family stubs announce: 1 = IPv4, 2 = IPv6 via the "
                     "sim's v4-in-v6 embedding");
  options.add_option("ecs-v6-source-len",
                     std::to_string(net::default_ecs_scope(net::IpFamily::kV6)),
                     "announced v6 source prefix length with --ecs-family 2; /56 "
                     "matches v4 /24, /48 coarsens to /16");
}

int cmd_world(const std::vector<std::string>& args) {
  tools::OptionSet options;
  add_common(options);
  options.parse(args);
  measure::Testbed testbed(testbed_config(options));
  const auto& graph = testbed.world().graph();
  std::cout << "ASes: " << graph.node_count() << "  links: " << graph.link_count()
            << "  hosts: " << testbed.world().host_count() << "  clients: "
            << testbed.clients().size() << "\n\nproviders:\n";
  for (std::size_t p = 0; p < testbed.provider_count(); ++p) {
    const auto& provider = testbed.provider(p);
    std::cout << "  " << provider.profile().name << " (" << provider.profile().zone
              << "): " << provider.clusters().size() << " clusters"
              << (provider.profile().anycast ? ", anycast" : "") << "\n";
  }
  std::cout << "\nsites (CNAME-fronted):\n";
  for (const auto& site : testbed.sites()) {
    std::cout << "  " << site.host.to_string() << " -> " << site.cdn_target.to_string()
              << "\n";
  }
  return 0;
}

int cmd_trial(const std::vector<std::string>& args) {
  tools::OptionSet options;
  add_common(options);
  options.add_option("client", "0", "client index");
  options.add_option("provider", "0", "provider index (0..5)");
  options.parse(args);
  measure::Testbed testbed(testbed_config(options));
  measure::TrialRunner runner(&testbed, testbed.config().seed ^ 0xAB);
  const auto trial = runner.run(static_cast<std::size_t>(options.get_int("client")),
                                static_cast<std::size_t>(options.get_int("provider")), 0.0);
  std::cout << "client " << trial.client.to_string() << "  provider " << trial.provider
            << "  domain " << trial.domain << "\nCR-set:\n";
  for (const auto& m : trial.cr) {
    std::cout << "  " << m.replica.to_string() << "  " << analysis::fmt(m.rtt_ms, 1)
              << " ms\n";
  }
  std::cout << "hops:\n";
  for (const auto& hop : trial.hops) {
    std::cout << "  " << hop.ip.to_string() << "  " << (hop.usable ? "usable  " : "filtered")
              << "  " << hop.rdns;
    const auto ratio = core::latency_ratio(trial, hop, core::RatioConvention::deployment());
    if (ratio) {
      std::cout << "  ratio " << analysis::fmt(*ratio)
                << (core::is_valley(*ratio, 1.0) ? "  VALLEY" : "");
    }
    std::cout << "\n";
  }
  return 0;
}

int cmd_campaign(const std::vector<std::string>& args) {
  tools::OptionSet options;
  add_common(options);
  options.add_option("trials", "10", "trials per client-provider pair");
  options.add_option("spacing-hours", "1.5", "time between trials");
  options.add_option("out", "campaign.dataset", "output dataset file");
  options.add_option("threads", "",
                     "worker threads (empty = DRONGO_THREADS, 0 = hardware concurrency)");
  options.add_option("metrics-out", "", "write obs telemetry as JSON-lines to this file");
  options.add_option("metrics-prom", "",
                     "write obs telemetry in Prometheus text format to this file");
  options.add_flag("profile",
                   "add span wall times (total_ms) to --metrics-out/--metrics-prom; "
                   "they vary run to run");
  options.add_flag("downloads", "also measure download times (Fig. 4b/4c)");
  options.add_option("gwtw-k", "0",
                     "Go-With-The-Winner: race the first k replicas per trial "
                     "(0 = off, needs k >= 2 to race)");
  options.add_flag("valley-share",
                   "fold the campaign into a crowd-shared valley store");
  options.parse(args);
  const int threads = options.get("threads").empty()
                          ? measure::thread_count_from_env()
                          : static_cast<int>(options.get_int("threads"));
  measure::Testbed testbed(testbed_config(options));
  measure::TrialConfig trial_config;
  trial_config.measure_downloads = options.get_flag("downloads");
  const auto gwtw_k = options.get_int("gwtw-k");
  if (gwtw_k < 0) throw net::InvalidArgument("--gwtw-k must be >= 0");
  trial_config.gwtw_k = static_cast<int>(gwtw_k);
  measure::TrialRunner runner(&testbed, testbed.config().seed ^ 0xCA, trial_config);
  // One registry spans the whole campaign: testbed fault fabrics, every
  // stub the trials create, and the trial runner itself all tally into it.
  // Its snapshot is seed-deterministic for any thread count, so the files
  // below are reproducibility artifacts like the dataset.
  obs::Registry registry;
  testbed.set_registry(&registry);
  runner.set_registry(&registry);
  measure::ParallelCampaignRunner parallel(&runner, {.threads = threads});
  const auto records = parallel.run_campaign(static_cast<int>(options.get_int("trials")),
                                             options.get_double("spacing-hours"));
  measure::save_dataset_file(options.get("out"), records);
  std::cout << records.size() << " trials written to " << options.get("out") << "\n";

  // Crowd-shared valley scenario: fold the finished campaign into a
  // ValleyStore, clustering clients by routing similarity toward the
  // provider ASes. The fold is deterministic — contributions are commutative
  // and the choose() pass walks clusters in map order — so the
  // `core.valley_store.*` counters land in the registry before the metrics
  // export below and stay byte-identical across thread counts. With the
  // flag off, nothing here runs and the telemetry
  // is exactly the no-sharing output.
  if (options.get_flag("valley-share")) {
    core::ValleyStore store;
    store.set_registry(&registry);
    std::vector<std::size_t> landmarks;
    landmarks.reserve(testbed.provider_count());
    for (std::size_t p = 0; p < testbed.provider_count(); ++p) {
      landmarks.push_back(testbed.provider(p).as_index());
    }
    std::map<std::uint32_t, std::string> cluster_of;  // client -> cluster key
    std::map<std::string, std::set<std::string>> cluster_domains;
    for (const auto& record : records) {
      if (record.failed()) continue;
      auto [it, fresh] = cluster_of.try_emplace(record.client.to_uint());
      if (fresh) {
        it->second =
            core::routing_cluster_key(testbed.world(), record.client, landmarks);
      }
      store.contribute(it->second, record);
      cluster_domains[it->second].insert(net::to_lower(record.domain));
    }
    std::uint64_t pairs = 0;
    std::uint64_t shareable = 0;
    for (const auto& [cluster, domains] : cluster_domains) {
      for (const auto& domain : domains) {
        ++pairs;
        if (store.choose(cluster, domain)) ++shareable;
      }
    }
    std::cout << "valley share: " << store.cluster_count() << " clusters, "
              << store.tracked_subnets() << " pooled subnets, " << shareable << "/"
              << pairs << " (cluster, domain) pairs with a shareable valley\n";
  }

  const auto write_metrics = [&](const std::string& option, auto writer) {
    const std::string path = options.get(option);
    if (path.empty()) return;
    std::ofstream file(path);
    if (!file) throw net::InvalidArgument("cannot open --" + option + " file " + path);
    writer(file, registry.snapshot());
    std::cout << "metrics written to " << path << "\n";
  };
  // Span wall times are the one nondeterministic figure, so they appear
  // only when asked for; without --profile the exports stay reproducible.
  const obs::ExportOptions export_options{.include_span_timings = options.get_flag("profile")};
  write_metrics("metrics-out", [&](std::ostream& out, const obs::Snapshot& snapshot) {
    obs::write_jsonl(out, snapshot, export_options);
  });
  write_metrics("metrics-prom", [&](std::ostream& out, const obs::Snapshot& snapshot) {
    obs::write_prometheus(out, snapshot, export_options);
  });

  const auto health = measure::aggregate_health(records);
  std::cout << "outcomes: " << health.ok_trials << " ok, " << health.degraded_trials
            << " degraded, " << health.failed_trials << " failed\n";
  if (testbed.config().fault_profile.active()) {
    const auto& t = health.totals;
    std::cout << "client health: " << t.queries << " queries, " << t.retries
              << " retries, " << t.timeouts << " timeouts, " << t.server_failures
              << " servfails, " << t.tcp_fallbacks << " tcp fallbacks, "
              << t.deadline_exceeded << " deadlines, " << t.failed_queries
              << " gave up, " << t.hop_resolution_failures << " hop failures\n";
    const auto& cf = testbed.client_faults();
    const auto& rf = testbed.resolver_faults();
    std::cout << "injected faults (client/resolver path): losses "
              << cf.losses() << "/" << rf.losses() << ", timeouts " << cf.timeouts()
              << "/" << rf.timeouts() << ", servfails " << cf.servfails() << "/"
              << rf.servfails() << ", refusals " << cf.refusals() << "/"
              << rf.refusals() << ", truncations " << cf.truncations() << "/"
              << rf.truncations() << ", ecs strips " << cf.ecs_strips() << "/"
              << rf.ecs_strips() << ", scope zeros " << cf.scope_zeros() << "/"
              << rf.scope_zeros() << ", outage hits " << cf.outage_hits() << "/"
              << rf.outage_hits() << "\n";
  }
  if (trial_config.gwtw_k >= 2) {
    std::uint64_t races = 0;
    std::uint64_t switched = 0;
    double first_sum = 0.0;
    double winner_sum = 0.0;
    for (const auto& r : records) {
      if (r.race.empty()) continue;
      ++races;
      if (r.race_winner() != 0) ++switched;
      first_sum += r.race.front().rtt_ms;
      winner_sum += r.race_winner_rtt_ms();
    }
    std::cout << "gwtw racing (k=" << trial_config.gwtw_k << "): " << races
              << " races, " << switched << " switched winners";
    if (races > 0) {
      std::cout << ", mean first replica "
                << analysis::fmt(first_sum / static_cast<double>(races), 2)
                << " ms -> winner "
                << analysis::fmt(winner_sum / static_cast<double>(races), 2) << " ms";
    }
    std::cout << "\n";
  }
  if (const auto* hedged = testbed.hedged_upstream()) {
    std::cout << "hedged upstream: " << hedged->exchanges() << " exchanges, "
              << hedged->hedges_fired() << " hedges (" << hedged->hedge_wins()
              << " wins, " << hedged->hedge_losses() << " losses, "
              << hedged->rescued() << " rescued, " << hedged->both_failed()
              << " dual failures)\n";
  }
  if (testbed.config().serving.overload.enabled) {
    const auto& admission = testbed.resolver().admission();
    const auto codel = admission.stats();
    std::cout << "codel admission: " << codel.offered << " offered, "
              << codel.admitted << " admitted, " << codel.dropped << " shed ("
              << codel.sloughed << " sloughed), max sojourn "
              << analysis::fmt(admission.max_sojourn_ms(), 2) << " ms\n";
  }
  return 0;
}

int cmd_analyze(const std::vector<std::string>& args) {
  tools::OptionSet options;
  options.add_option("in", "campaign.dataset", "dataset file from `campaign`");
  options.parse(args);
  const auto records = measure::load_dataset_file(options.get("in"));
  std::cout << records.size() << " trials loaded\n\n";
  std::vector<std::vector<std::string>> cells;
  for (const auto& row : analysis::table1(records)) {
    cells.push_back({row.provider, analysis::fmt(row.pct_valleys_overall) + "%",
                     analysis::fmt(row.pct_routes_with_valley) + "%",
                     analysis::fmt(row.pct_pairs_vf_above_half) + "%"});
  }
  std::cout << analysis::render_table(
      "valley prevalence",
      {"provider", "% valleys", "% routes w/ valley", "% pairs vf>0.5"}, cells);
  std::cout << "\nvalley depth (ratio 0..1):\n";
  for (const auto& row : analysis::figure6(records)) {
    std::cout << analysis::render_box(row.provider, row.box, 0.0, 1.0);
  }
  return 0;
}

int cmd_sweep(const std::vector<std::string>& args) {
  tools::OptionSet options;
  add_common(options);
  options.add_option("threads", "1", "worker threads (0 = hardware concurrency)");
  options.parse(args);
  measure::TestbedConfig config = testbed_config(options);
  if (options.get("scale") == "planetlab" && options.get_int("clients") == 0) {
    config.client_count = 60;  // keep the default sweep quick
  }
  measure::Testbed testbed(config);
  analysis::EvaluationConfig eval_config;
  eval_config.threads = static_cast<int>(options.get_int("threads"));
  analysis::Evaluation evaluation(&testbed, config.seed ^ 0x57, eval_config);
  const std::vector<double> vf_values{0.2, 0.4, 0.6, 0.8, 1.0};
  const std::vector<double> vt_values{0.3, 0.5, 0.7, 0.8, 0.9, 0.95, 1.0};
  const auto sweep = analysis::parameter_sweep(evaluation, vf_values, vt_values);
  std::vector<std::string> headers{"vt"};
  for (double vf : vf_values) headers.push_back("vf>=" + analysis::fmt(vf, 1));
  std::vector<std::vector<std::string>> cells;
  for (double vt : vt_values) {
    std::vector<std::string> row{analysis::fmt(vt, 2)};
    for (double vf : vf_values) {
      for (const auto& point : sweep) {
        if (point.vf == vf && point.vt == vt) {
          row.push_back(analysis::fmt(point.overall_ratio, 4));
        }
      }
    }
    cells.push_back(std::move(row));
  }
  std::cout << analysis::render_table("overall latency ratio", headers, cells);
  const auto best = analysis::best_point(sweep);
  std::cout << "\noptimum: vf=" << analysis::fmt(best.vf, 1) << " vt="
            << analysis::fmt(best.vt, 2) << " ratio " << analysis::fmt(best.overall_ratio, 4)
            << " affecting " << analysis::fmt(best.clients_affected * 100.0)
            << "% of clients\n";
  return 0;
}

int cmd_probe(const std::vector<std::string>& args) {
  tools::OptionSet options;
  add_common(options);
  options.parse(args);
  measure::TestbedConfig config = testbed_config(options);
  auto profiles = cdn::paper_providers();
  profiles.push_back(cdn::akamai_like_restricted());
  config.profiles = profiles;
  config.client_count = 4;
  measure::Testbed testbed(config);

  std::vector<net::Prefix> subnets;
  for (std::size_t i = 0; i < 8; ++i) {
    const auto block =
        testbed.world().block_of(i * 13 % testbed.world().graph().node_count());
    subnets.emplace_back(net::Ipv4Addr(block.network().to_uint() | (40u << 8)), 24);
  }
  core::EcsProber prober(subnets);
  auto stub = testbed.make_stub(testbed.clients()[0], 3);
  std::vector<std::vector<std::string>> cells;
  for (std::size_t p = 0; p < testbed.provider_count(); ++p) {
    const auto result = prober.probe(stub, testbed.content_names(p)[0]);
    cells.push_back({testbed.profile(p).name, result.resolvable ? "yes" : "no",
                     result.ecs_unrestricted ? "unrestricted" : "restricted"});
  }
  std::cout << analysis::render_table("ECS probe", {"provider", "resolvable", "ECS"}, cells);
  return 0;
}

int cmd_serve(const std::vector<std::string>& args) {
  tools::OptionSet options;
  add_common(options);
  options.add_option("port", "0", "UDP and TCP port (0 = ephemeral)");
  options.add_option("duration", "30", "seconds to serve");
  options.add_option("vf", "1.0", "minimum valley frequency");
  options.add_option("vt", "0.95", "valley threshold");
  options.parse(args);
  measure::TestbedConfig config = testbed_config(options);
  config.client_count = std::max(4, config.client_count);
  measure::Testbed testbed(config);
  measure::TrialRunner runner(&testbed, config.seed ^ 0x5E);
  core::DrongoParams params;
  params.min_valley_frequency = options.get_double("vf");
  params.valley_threshold = options.get_double("vt");
  core::DrongoClient drongo(params, 1);
  for (std::size_t p = 0; p < testbed.provider_count(); ++p) {
    drongo.train(runner, 0, p, 5, 12.0);
  }
  dns::LdnsProxy proxy(&testbed.dns_network(), testbed.resolver_address(),
                       net::Ipv4Addr(127, 0, 0, 53), &drongo);
  // One port for both transports, so `dig +tcp` reaches the same port. The
  // packet cache is off so every query reaches the proxy and its counters.
  dns::DaemonServerConfig server_config;
  server_config.udp_port = static_cast<std::uint16_t>(options.get_int("port"));
  server_config.tcp_port = server_config.udp_port;
  server_config.packet_cache_entries = 0;
  dns::DaemonServer server(&proxy, server_config);
  std::cout << "Drongo proxy on 127.0.0.1: udp port " << server.udp_port()
            << ", tcp port " << server.tcp_port() << ", for "
            << options.get_int("duration") << "s\n";
  std::cout << "  dig @127.0.0.1 -p " << server.udp_port() << " img.googlecdn.sim\n";
  std::cout.flush();
  std::this_thread::sleep_for(std::chrono::seconds(options.get_int("duration")));
  server.stop();  // drains: queued queries are answered before the sockets close
  std::cout << "served " << server.served() << " responses, " << proxy.forwarded()
            << " forwarded, " << proxy.assimilated() << " assimilated\n";
  return 0;
}

int cmd_help() {
  std::cout << "drongo_sim — Drongo (CoNEXT'17) reproduction toolbox\n\n"
               "usage: drongo_sim <command> [--option value ...]\n\n"
               "commands:\n"
               "  world     print the simulated Internet and CDN deployments\n"
               "  trial     run one measurement trial and show valleys\n"
               "  campaign  run a trial campaign and write a dataset file\n"
               "  analyze   analyze a dataset file (Table 1 / Figure 6 views)\n"
               "  sweep     the (vf, vt) parameter sweep with its optimum\n"
               "  probe     unrestricted-ECS provider probe\n"
               "  serve     run the trained Drongo LDNS proxy over UDP and TCP\n"
               "  help      this text\n\n"
               "common options: --seed N (default: the scale's own seed),\n"
               "  --clients N, --scale planetlab|ripe,\n"
               "  --fault-profile none|lossy|flaky|ecs-hostile|chaos (DNS fault\n"
               "  injection; fine-tune with DRONGO_FAULT_* env knobs),\n"
               "  --resolver-shards N (serving cache, 0 = off), --coalesce\n"
               "  (singleflight for concurrent identical queries),\n"
               "  --hedge-threshold-ms MS (hedge upstream exchanges past MS,\n"
               "  0 = off), --codel-target-ms MS + --codel-interval-ms MS (CoDel\n"
               "  overload shedding, 0 = off), --ecs-family 1|2 +\n"
               "  --ecs-v6-source-len N (dual-stack ECS: stubs announce family-2\n"
               "  v4-in-v6 subnets; /56 matches v4 /24, /48 coarsens to /16)\n"
               "campaign racing: --gwtw-k K races the first K replicas per trial\n"
               "  (Go-With-The-Winner; race standings land in the dataset)\n"
               "campaign telemetry: --metrics-out FILE (JSON-lines) and\n"
               "  --metrics-prom FILE (Prometheus text); --profile adds span wall\n"
               "  times (total_ms); see docs/OBSERVABILITY.md\n"
               "campaign sharing: --valley-share folds the campaign into a\n"
               "  crowd-shared valley store clustered by routing similarity\n"
               "  (core.valley_store.* telemetry)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return cmd_help();
  const std::string command = args.front();
  args.erase(args.begin());
  try {
    if (command == "world") return cmd_world(args);
    if (command == "trial") return cmd_trial(args);
    if (command == "campaign") return cmd_campaign(args);
    if (command == "analyze") return cmd_analyze(args);
    if (command == "sweep") return cmd_sweep(args);
    if (command == "probe") return cmd_probe(args);
    if (command == "serve") return cmd_serve(args);
    if (command == "help" || command == "--help") return cmd_help();
    std::cerr << "unknown command '" << command << "'\n\n";
    cmd_help();
    return 2;
  } catch (const net::Error& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
