// The campaign workload: the §5 RIPE-style campaign (10 trials per
// (client, provider) pair on 2 ParallelCampaignRunner workers, resolver
// cache off) followed by the §5.1 (vf, vt) grid through
// Evaluation::evaluate. Every resolution goes upstream through the codec to
// the CDN authoritatives and the topology model, so this is the one
// workload where measure, topology and core do the work.
#include <unistd.h>

#include <algorithm>
#include <map>
#include <set>

#include "analysis/evaluation.hpp"
#include "bench.hpp"
#include "cdn/authoritative.hpp"
#include "measure/campaign.hpp"
#include "measure/stats.hpp"
#include "measure/testbed.hpp"
#include "obs/metrics.hpp"

namespace perfbench {
namespace {

using namespace drongo;

constexpr int kClients = 8;  // 8 x 6 providers x 10 trials = 480 trials per campaign
constexpr int kWorkers = 2;
constexpr int kSetups = 11;
// Latency percentiles are taken over the iterations ending in each 1 s
// window and averaged over the windows ranked 10%-90%, as for the serve
// workloads: one iteration slowed by the host then moves one window, where
// it alone set the p99 of a run of ~100 iterations.
constexpr double kWindowSeconds = 1.0;
constexpr std::size_t kMinPerWindow = 3;
constexpr double kTrimLow = 0.10;
constexpr double kTrimHigh = 0.90;
constexpr double kHeadlineVf = 1.0;
constexpr double kHeadlineVt = 0.95;
const std::vector<double> kVf = {0.2, 0.4, 0.6, 0.8, 1.0};
const std::vector<double> kVt = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0};

measure::TestbedConfig campaign_config() {
  measure::TestbedConfig config = measure::TestbedConfig::ripe_atlas();
  config.client_count = kClients;
  return config;  // resolver cache off: the pass-through resolver of every paper experiment
}

/// The paper's headline numbers at one (vf, vt).
struct Headline {
  double aggregate_gain = 0.0;
  double clients_affected = 0.0;
  double median_affected_gain = 0.0;
  bool operator==(const Headline&) const = default;
};

Headline headline(const std::vector<analysis::EvalSample>& samples, std::size_t clients) {
  Headline h;
  double sum = 0.0;
  std::vector<double> assimilated;
  std::set<std::size_t> affected;
  for (const auto& s : samples) {
    sum += s.ratio;
    if (s.assimilated) {
      assimilated.push_back(s.ratio);
      affected.insert(s.client_index);
    }
  }
  h.aggregate_gain = samples.empty() ? 0.0 : 1.0 - sum / static_cast<double>(samples.size());
  h.clients_affected = static_cast<double>(affected.size()) / static_cast<double>(clients);
  h.median_affected_gain = assimilated.empty() ? 0.0 : 1.0 - measure::median(assimilated);
  return h;
}

bool same_measurements(const std::vector<measure::ReplicaMeasurement>& a,
                       const std::vector<measure::ReplicaMeasurement>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].replica != b[i].replica || a[i].rtt_ms != b[i].rtt_ms ||
        a[i].download_first_ms != b[i].download_first_ms ||
        a[i].download_cached_ms != b[i].download_cached_ms) {
      return false;
    }
  }
  return true;
}

bool same_record(const measure::TrialRecord& a, const measure::TrialRecord& b) {
  if (a.provider != b.provider || a.domain != b.domain || a.client_index != b.client_index ||
      a.client != b.client || a.time_hours != b.time_hours || a.outcome != b.outcome ||
      a.failure != b.failure || !(a.health == b.health) || !same_measurements(a.cr, b.cr) ||
      !same_measurements(a.race, b.race) || a.hops.size() != b.hops.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.hops.size(); ++i) {
    const auto& x = a.hops[i];
    const auto& y = b.hops[i];
    if (x.ip != y.ip || !(x.subnet == y.subnet) || x.rdns != y.rdns || !(x.asn == y.asn) ||
        x.usable != y.usable || !same_measurements(x.hr, y.hr)) {
      return false;
    }
  }
  return true;
}

struct Instance {
  std::unique_ptr<measure::Testbed> testbed;
  std::vector<std::unique_ptr<cdn::CdnAuthoritative>> auths;
  std::vector<std::unique_ptr<TimedServer>> auth_timers;
  std::unique_ptr<TimedServer> resolver_timer;
  std::unique_ptr<analysis::Evaluation> reference;  // serial run of the same campaign
  Headline reference_headline;
};

/// Testbed build with the timing decorators registered in front of the
/// resolver and each CDN authoritative, then the warm-up: the same campaign
/// run serially, which is also the reference the timed runs must equal.
std::unique_ptr<Instance> set_up(std::uint64_t seed, Tracer& tracer) {
  auto inst = std::make_unique<Instance>();
  inst->testbed = std::make_unique<measure::Testbed>(campaign_config());
  measure::Testbed& tb = *inst->testbed;
  for (std::size_t i = 0; i < tb.provider_count(); ++i) {
    inst->auths.push_back(std::make_unique<cdn::CdnAuthoritative>(&tb.provider(i)));
    inst->auth_timers.push_back(std::make_unique<TimedServer>(
        inst->auths.back().get(), &tracer, SpanName::kAuthoritativeHandle));
    tb.dns_network().register_server(tb.authoritative_addresses()[i],
                                     inst->auth_timers.back().get());
  }
  inst->resolver_timer =
      std::make_unique<TimedServer>(&tb.resolver(), &tracer, SpanName::kResolverHandle);
  tb.dns_network().register_server(tb.resolver_address(), inst->resolver_timer.get());
  inst->reference = std::make_unique<analysis::Evaluation>(
      &tb, seed, analysis::EvaluationConfig{.threads = 1});
  inst->reference_headline =
      headline(inst->reference->evaluate(kHeadlineVf, kHeadlineVt), inst->reference->client_count());
  return inst;
}

/// The campaign's task list exactly as Evaluation builds it: every (client,
/// provider) pair, training then test trials, domain pinned per pair.
std::vector<measure::CampaignTask> campaign_tasks(const measure::Testbed& tb) {
  const analysis::EvaluationConfig config;
  const int total = config.training_trials + config.test_trials;
  std::vector<measure::CampaignTask> tasks;
  const std::size_t providers = tb.provider_count();
  for (std::size_t c = 0; c < tb.clients().size(); ++c) {
    for (std::size_t p = 0; p < providers; ++p) {
      for (int t = 0; t < total; ++t) {
        tasks.push_back({c, p, static_cast<std::uint64_t>(t), t * config.spacing_hours, c % 3});
      }
    }
  }
  return tasks;
}

/// The timed iterations of one phase. Throughput and CPU cover all of them:
/// the host's speed swings every second or so, and a whole-run figure
/// follows the share of time spent at each speed, while a median over
/// windows takes the speed that held longest and so jumps between speeds
/// from run to run.
struct Iterations {
  std::uint64_t trials = 0;
  std::uint64_t failed_trials = 0;
  std::vector<double> latency_ms;  ///< per iteration
  std::vector<double> ended_s;     ///< when each iteration ended, from the phase start
  double seconds = 0.0;            ///< summed iteration time
  double cpu_s = 0.0;              ///< summed process CPU of the iterations

  /// Iteration latency percentile per window, mean over the middle windows.
  [[nodiscard]] double latency_percentile(double q) const {
    std::map<long, std::vector<double>> windows;
    for (std::size_t i = 0; i < latency_ms.size(); ++i) {
      windows[static_cast<long>(ended_s[i] / kWindowSeconds)].push_back(latency_ms[i]);
    }
    std::vector<double> per_window;
    for (auto& [index, values] : windows) {
      if (values.size() < kMinPerWindow) continue;
      std::sort(values.begin(), values.end());
      per_window.push_back(percentile(values, q));
    }
    return trimmed_mean(per_window, kTrimLow, kTrimHigh);
  }

  /// Trials measured and decided per second of iteration time.
  [[nodiscard]] double throughput() const {
    return seconds > 0.0 ? static_cast<double>(trials) / seconds : 0.0;
  }
  [[nodiscard]] double cpu_us_per_trial() const {
    return trials > 0 ? cpu_s * 1e6 / static_cast<double>(trials) : 0.0;
  }
};

}  // namespace

Outcome run_campaign(const Options& options) {
  Outcome outcome;
  Tracer tracer;
  const std::uint64_t seed = options.seed;
  // The worker pool's threads inherit this thread's affinity: two CPUs off CPU 0.
  const Placement placement = choose_placement();
  std::vector<int> cpus = placement.listener;
  if (placement.generator != placement.listener) {
    cpus.insert(cpus.end(), placement.generator.begin(), placement.generator.end());
  }
  pin_calling_thread(cpus);

  std::vector<double> setup_seconds;
  std::unique_ptr<Instance> inst;
  for (int i = 0; i < kSetups; ++i) {
    inst.reset();
    const std::uint64_t start = now_ns();
    inst = set_up(seed, tracer);
    setup_seconds.push_back(static_cast<double>(now_ns() - start) / 1e9);
  }
  measure::Testbed& tb = *inst->testbed;
  const analysis::Evaluation& reference = *inst->reference;
  if (options.corrupt) inst->resolver_timer->corrupt_every(97);

  const std::size_t clients = tb.clients().size();
  const std::size_t providers = tb.provider_count();
  std::string first_problem;
  // One iteration: the campaign on the worker pool, then the (vf, vt) grid.
  // Only the iteration itself is timed; its checks run after the clock stops.
  auto iterate = [&](double seconds, bool traced) {
    tracer.set_enabled(traced);
    Iterations it;
    const std::uint64_t phase_start = now_ns();
    const std::uint64_t deadline = phase_start + static_cast<std::uint64_t>(seconds * 1e9);
    do {
      const double cpu_start = process_cpu_s();
      const std::uint64_t start = now_ns();
      std::unique_ptr<analysis::Evaluation> evaluation;
      {
        const Tracer::Scope span(&tracer, SpanName::kCampaignRun, 0);
        evaluation = std::make_unique<analysis::Evaluation>(
            &tb, seed, analysis::EvaluationConfig{.threads = kWorkers});
      }
      Headline at_headline;
      std::size_t decided = 0;
      for (double vf : kVf) {
        for (double vt : kVt) {
          const Tracer::Scope span(&tracer, SpanName::kSweepEvaluate, 0);
          const auto samples = evaluation->evaluate(vf, vt);
          decided += samples.size();
          if (vf == kHeadlineVf && vt == kHeadlineVt) at_headline = headline(samples, clients);
        }
      }
      const double elapsed = static_cast<double>(now_ns() - start) / 1e9;
      const double cpu = process_cpu_s() - cpu_start;
      it.latency_ms.push_back(elapsed * 1e3);
      it.ended_s.push_back(static_cast<double>(now_ns() - phase_start) / 1e9);
      it.seconds += elapsed;
      it.cpu_s += cpu;

      std::uint64_t trials = 0;
      std::uint64_t mismatched = 0;
      for (std::size_t c = 0; c < clients; ++c) {
        for (std::size_t p = 0; p < providers; ++p) {
          const auto& got = evaluation->records(c, p);
          const auto& want = reference.records(c, p);
          trials += got.size();
          for (std::size_t t = 0; t < got.size(); ++t) {
            if (t >= want.size() || !same_record(got[t], want[t])) ++mismatched;
          }
        }
      }
      it.trials += trials;
      it.failed_trials += mismatched;
      const bool headline_ok = at_headline == inst->reference_headline && decided > 0;
      if (!headline_ok) it.failed_trials += trials - mismatched;  // every trial fed it
      if (first_problem.empty() && mismatched > 0) {
        first_problem = std::to_string(mismatched) + " trial records differ from the serial reference";
      } else if (first_problem.empty() && !headline_ok) {
        first_problem = "headline numbers differ from the serial reference";
      }
    } while (now_ns() < deadline);
    tracer.set_enabled(false);
    return it;
  };

  std::vector<Iterations> phases;
  if (options.trace) {
    phases.push_back(iterate(options.seconds / 2, false));
    phases.push_back(iterate(options.seconds / 2, true));
  } else {
    phases.push_back(iterate(options.seconds, false));
  }
  for (const auto& p : phases) {
    outcome.attempted += p.trials;
    outcome.failed += p.failed_trials;
  }
  if (!first_problem.empty()) outcome.fail(first_problem);

  outcome.info["clients"] = std::to_string(clients);
  outcome.info["workers"] = std::to_string(kWorkers);
  outcome.info["trials_per_campaign"] = std::to_string(campaign_tasks(tb).size());
  outcome.info["grid_points"] = std::to_string(kVf.size() * kVt.size());
  outcome.info["latency_samples"] = std::to_string(phases.back().latency_ms.size());
  outcome.info["latency_unit"] = "one campaign plus its (vf, vt) grid";
  outcome.info["latency"] = "percentile per 1 s window, mean over the windows ranked 10%-90%";
  outcome.info["throughput"] = "trials of all iterations / summed iteration time";
  outcome.info["setups"] = std::to_string(kSetups);
  outcome.info["pin.workers.requested"] = cpu_list(cpus);
  const auto placements = thread_placements();
  const auto self = placements.find(static_cast<long>(gettid()));
  outcome.info["pin.workers.achieved"] =
      (self == placements.end() ? std::string("?") : self->second) + " (pool threads inherit it)";
  outcome.info["headline.aggregate_gain"] = std::to_string(inst->reference_headline.aggregate_gain);
  outcome.info["headline.clients_affected"] = std::to_string(inst->reference_headline.clients_affected);
  outcome.info["headline.median_affected_gain"] =
      std::to_string(inst->reference_headline.median_affected_gain);
  if (static_cast<long>(kWorkers) > static_cast<long>(allowed_cpus().size())) {
    outcome.fail("more campaign workers than CPUs");
  }

  if (!options.trace) {
    const Iterations& m = phases.back();
    outcome.set("throughput_per_s", m.throughput(), "1/s");
    outcome.set("p50_ms", m.latency_percentile(0.50), "ms");
    outcome.set("p99_ms", m.latency_percentile(0.99), "ms");
    outcome.set("cpu_us_per_op", m.cpu_us_per_trial(), "us");
    outcome.set("setup_s", median(setup_seconds), "s");
    outcome.set("rss_mb", peak_rss_mb(), "MB");
    return outcome;
  }

  // ---- Per-layer figures ----
  const SpanTotals evaluate = tracer.totals(SpanName::kSweepEvaluate);
  const double evaluate_ms =
      evaluate.count > 0 ? static_cast<double>(evaluate.total_ns) / 1e6 / static_cast<double>(evaluate.count) : 0.0;
  const double overhead = 1.0 - phases[1].throughput() / phases[0].throughput();

  // Profiling pass: the same campaign through a TrialRunner with a
  // wall-clock obs::Registry attached, so the existing measure.trial.*
  // spans give the per-phase breakdown, with the resolver and authoritative
  // decorators on. Resolver time is charged to the phase its query belongs
  // to (see classify()).
  tracer.reset();
  obs::Registry registry;
  measure::TrialRunner runner(&tb, seed);
  runner.set_registry(&registry);
  const measure::ParallelCampaignRunner pool(&runner, {.threads = kWorkers});
  const auto tasks = campaign_tasks(tb);
  inst->resolver_timer->keep_samples(2048);
  const std::uint64_t upstream_before = tb.resolver().upstream_queries();
  tracer.set_enabled(true);
  const std::uint64_t pool_start = now_ns();
  const auto records = pool.run(tasks);
  const double pool_seconds = static_cast<double>(now_ns() - pool_start) / 1e9;
  tracer.set_enabled(false);
  const double upstream = static_cast<double>(tb.resolver().upstream_queries() - upstream_before);
  std::vector<std::size_t> next_trial(clients * providers, 0);
  std::uint64_t mismatched = 0;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const auto& want = reference.records(tasks[i].client_index, tasks[i].provider_index);
    const std::size_t t = next_trial[tasks[i].client_index * providers + tasks[i].provider_index]++;
    if (t >= want.size() || !same_record(records[i], want[t])) ++mismatched;
  }
  outcome.attempted += tasks.size();
  outcome.failed += mismatched;
  if (mismatched > 0) outcome.fail(std::to_string(mismatched) + " profiled trial records differ from the serial reference");

  const obs::Snapshot snap = registry.snapshot();
  auto span_ns = [&](const char* name) {
    const auto it = snap.spans.find(name);
    return it == snap.spans.end() ? 0.0 : static_cast<double>(it->second.total_ticks);
  };
  const auto trial_it = snap.spans.find("measure.trial");
  const double trials = trial_it == snap.spans.end() ? 0.0 : static_cast<double>(trial_it->second.count);
  auto per_trial_us = [&](double ns) { return trials > 0.0 ? ns / 1e3 / trials : 0.0; };
  const double trial_ns = span_ns("measure.trial");
  const SpanTotals resolver = tracer.totals(SpanName::kResolverHandle);
  const SpanTotals authoritative = tracer.totals(SpanName::kAuthoritativeHandle);
  auto dns_in = [&](QueryKind kind) {
    return static_cast<double>(tracer.totals(SpanName::kResolverHandle, kind).total_ns);
  };
  const double cr_self = span_ns("measure.trial.resolve_cr") - dns_in(QueryKind::kResolveCr);
  const double traceroute_self = span_ns("measure.trial.traceroute") - dns_in(QueryKind::kTraceroute);
  const double assimilate_self = span_ns("measure.trial.assimilate") - dns_in(QueryKind::kAssimilate);
  const double measure_self = span_ns("measure.trial.measure");
  const double phases_ns = span_ns("measure.trial.resolve_cr") + span_ns("measure.trial.traceroute") +
                           span_ns("measure.trial.assimilate") + span_ns("measure.trial.measure") +
                           span_ns("measure.trial.race");
  const double trial_self = trial_ns - phases_ns;
  const double selves = trial_self + cr_self + traceroute_self + assimilate_self + measure_self +
                        span_ns("measure.trial.race") + static_cast<double>(resolver.self_ns) +
                        static_cast<double>(authoritative.self_ns);
  const auto stub_it = snap.counters.find("dns.resolver.queries");
  const double stub_queries = stub_it == snap.counters.end() ? 0.0 : static_cast<double>(stub_it->second);

  std::vector<double> resolver_self = tracer.self_samples_ns(SpanName::kResolverHandle);
  std::sort(resolver_self.begin(), resolver_self.end());
  std::vector<std::vector<std::uint8_t>> query_wires;
  std::vector<dns::Message> replies;
  for (const auto& [query, reply] : inst->resolver_timer->samples()) {
    query_wires.push_back(query.encode());
    replies.push_back(reply);
  }
  const CodecCost codec = time_codec(query_wires, replies, 0.05);

  outcome.set("netio.batch_fill", 0.0, "queries/batch");
  outcome.set("dns.daemon.pcache_hit_ratio", 0.0, "ratio");
  outcome.set("dns.daemon.server_cpu_us", 0.0, "us");
  outcome.set("dns.daemon.front_cpu_us", 0.0, "us");
  outcome.set("loadgen.cpu_us_per_query", 0.0, "us");
  outcome.set("loadgen.timeouts", 0.0, "count");
  std::vector<double> iteration_ms = phases.front().latency_ms;
  std::sort(iteration_ms.begin(), iteration_ms.end());
  outcome.set("loadgen.run_p99_ms", percentile(iteration_ms, 0.99), "ms");
  outcome.set("loadgen.stall_share", 0.0, "ratio");
  outcome.set("dns.codec.decode_us", codec.decode_us, "us");
  outcome.set("dns.codec.encode_us", codec.encode_us, "us");
  outcome.set("cdn.resolver.handle_us",
              resolver.count > 0 ? static_cast<double>(resolver.self_ns) / 1e3 / static_cast<double>(resolver.count) : 0.0,
              "us");
  outcome.set("cdn.resolver.handle_p99_us", percentile(resolver_self, 0.99) / 1e3, "us");
  outcome.set("cdn.resolver.calls_per_query",
              stub_queries > 0.0 ? static_cast<double>(resolver.count) / stub_queries : 0.0, "ratio");
  const dns::CacheStats cache = tb.resolver().cache_stats();
  const double lookups = static_cast<double>(cache.hits + cache.misses);
  outcome.set("dns.cache.hit_ratio", lookups > 0.0 ? static_cast<double>(cache.hits) / lookups : 0.0, "ratio");
  outcome.set("dns.lpm.visits_per_lookup",
              cache.lpm.lookups > 0 ? static_cast<double>(cache.lpm.node_visits) / static_cast<double>(cache.lpm.lookups) : 0.0,
              "count");
  outcome.set("cdn.resolver.upstream_per_op", trials > 0.0 ? upstream / trials : 0.0, "ratio");
  outcome.set("cdn.authoritative.handle_us",
              authoritative.count > 0
                  ? static_cast<double>(authoritative.self_ns) / 1e3 / static_cast<double>(authoritative.count)
                  : 0.0,
              "us");
  outcome.set("measure.trial_us", per_trial_us(trial_ns), "us");
  outcome.set("measure.trial.self_us", per_trial_us(trial_self), "us");
  outcome.set("measure.trial.resolve_cr_us", per_trial_us(cr_self), "us");
  outcome.set("measure.trial.traceroute_us", per_trial_us(traceroute_self), "us");
  outcome.set("measure.trial.assimilate_us", per_trial_us(assimilate_self), "us");
  outcome.set("measure.trial.measure_us", per_trial_us(measure_self), "us");
  outcome.set("dns.stub.queries_per_trial", trials > 0.0 ? stub_queries / trials : 0.0, "count");
  outcome.set("measure.campaign.worker_busy_share", pool_seconds > 0.0 ? trial_ns / 1e9 / (kWorkers * pool_seconds) : 0.0,
              "ratio");
  outcome.set("core.sweep.evaluate_ms", evaluate_ms, "ms");
  outcome.set("trace.overhead_share", overhead, "ratio");
  outcome.set("trace.remainder_us", per_trial_us(trial_ns - selves), "us");
  outcome.set("trace.remainder_share", trial_ns > 0.0 ? (trial_ns - selves) / trial_ns : 0.0, "ratio");
  outcome.info["trace.root"] = "measure.trial_us";
  // The remainder is zero by construction (each phase's resolver time is
  // both taken out of it and added back as resolver and authoritative self
  // time), so it cannot show a misattribution. These per-phase figures let
  // the self-test check one: a phase charged with more resolver time than
  // its span lasted, or resolver calls no phase claims.
  for (const auto& [kind, phase] : {std::pair{QueryKind::kResolveCr, "measure.trial.resolve_cr"},
                                    std::pair{QueryKind::kTraceroute, "measure.trial.traceroute"},
                                    std::pair{QueryKind::kAssimilate, "measure.trial.assimilate"},
                                    std::pair{QueryKind::kOther, ""}}) {
    const SpanTotals charged = tracer.totals(SpanName::kResolverHandle, kind);
    const std::string key = std::string("trace.phase.") + kind_name(kind);
    outcome.info[key + ".resolver_calls_per_trial"] =
        std::to_string(trials > 0.0 ? static_cast<double>(charged.count) / trials : 0.0);
    outcome.info[key + ".resolver_us"] = std::to_string(static_cast<double>(charged.total_ns) / 1e3);
    outcome.info[key + ".span_us"] = std::to_string(*phase == '\0' ? 0.0 : span_ns(phase) / 1e3);
  }
  outcome.info["trace.trial_self_us"] = std::to_string(trial_self / 1e3);
  outcome.info["trace.profiled_trials"] = std::to_string(static_cast<std::uint64_t>(trials));
  if (!options.trace_dir.empty()) {
    const std::string path = options.trace_dir + "/campaign-seed" + std::to_string(seed) + ".jsonl";
    outcome.info["trace.spans_written"] = std::to_string(tracer.write_jsonl(path));
    outcome.info["trace.file"] = path;
  }
  return outcome;
}

}  // namespace perfbench
