#include "measure/trial.hpp"

#include <algorithm>
#include <limits>
#include <string_view>

#include "dns/faults.hpp"
#include "net/error.hpp"
#include "obs/span.hpp"

namespace drongo::measure {

namespace {

/// Stream selector for schedule randomness (trial times), kept far away
/// from the client-index streams trials themselves draw from.
constexpr std::uint64_t kScheduleStream = 0x5C4ED01EULL;

}  // namespace

CampaignHealth aggregate_health(const std::vector<TrialRecord>& records) {
  CampaignHealth health;
  for (const auto& r : records) {
    health.totals += r.health;
    switch (r.outcome) {
      case TrialOutcome::kOk: ++health.ok_trials; break;
      case TrialOutcome::kDegraded: ++health.degraded_trials; break;
      case TrialOutcome::kFailed: ++health.failed_trials; break;
    }
  }
  return health;
}

const char* to_string(TrialOutcome outcome) {
  switch (outcome) {
    case TrialOutcome::kOk: return "ok";
    case TrialOutcome::kDegraded: return "degraded";
    case TrialOutcome::kFailed: return "failed";
  }
  return "ok";
}

TrialOutcome trial_outcome_from_string(const std::string& s) {
  if (s == "ok") return TrialOutcome::kOk;
  if (s == "degraded") return TrialOutcome::kDegraded;
  if (s == "failed") return TrialOutcome::kFailed;
  throw net::ParseError("unknown trial outcome '" + s + "'");
}

double TrialRecord::min_crm() const {
  double best = std::numeric_limits<double>::infinity();
  for (const auto& m : cr) best = std::min(best, m.rtt_ms);
  return best;
}

double TrialRecord::first_crm() const {
  return cr.empty() ? std::numeric_limits<double>::infinity() : cr.front().rtt_ms;
}

std::size_t TrialRecord::race_winner() const {
  std::size_t best = 0;
  for (std::size_t i = 1; i < race.size(); ++i) {
    // Strict < keeps ties on the earliest (CDN-preferred) contestant.
    if (race[i].rtt_ms < race[best].rtt_ms) best = i;
  }
  return best;
}

double TrialRecord::race_winner_rtt_ms() const {
  return race.empty() ? std::numeric_limits<double>::infinity()
                      : race[race_winner()].rtt_ms;
}

std::vector<const HopRecord*> TrialRecord::usable() const {
  std::vector<const HopRecord*> out;
  for (const auto& hop : hops) {
    if (hop.usable) out.push_back(&hop);
  }
  return out;
}

TrialRunner::TrialRunner(Testbed* testbed, std::uint64_t seed, TrialConfig config)
    : testbed_(testbed), seed_(seed), config_(config) {
  if (testbed_ == nullptr) throw net::InvalidArgument("null Testbed");
  if (config_.gwtw_k < 0) throw net::InvalidArgument("gwtw_k must be >= 0");
}

TrialRecord TrialRunner::run(std::size_t client_index, std::size_t provider_index,
                             double time_hours, std::optional<std::size_t> label_index) {
  const std::uint64_t trial = next_trial_[{client_index, provider_index}]++;
  return run_task({client_index, provider_index, trial, time_hours, label_index});
}

TrialRecord TrialRunner::run_task(const CampaignTask& task) const {
  net::Rng rng =
      net::Rng::derive(seed_, task.client_index, task.trial_index, task.provider_index);
  return run_with_rng(task.client_index, task.provider_index, task.time_hours,
                      task.label_index, rng);
}

TrialRecord TrialRunner::run_with_rng(std::size_t client_index,
                                      std::size_t provider_index, double time_hours,
                                      std::optional<std::size_t> label_index,
                                      net::Rng& rng) const {
  auto& world = testbed_->world();
  const net::Ipv4Addr client = testbed_->clients().at(client_index);

  // Fault outage windows are matched against the trial's simulated time;
  // thread-local, so concurrent workers each see their own trial's clock.
  const dns::ScopedFaultTime fault_time(time_hours);

  // The trial span is the taxonomy root: phase spans below nest inside it
  // on the executing thread, so their counts and depths cannot depend on
  // which thread (or how many) ran the campaign.
  const obs::Span trial_span(registry_, "measure.trial");
  const auto note = [this](const char* name) {
    if (registry_ != nullptr) registry_->add(name);
  };

  TrialRecord record;
  record.provider = testbed_->profile(provider_index).name;
  record.client_index = client_index;
  record.client = client;
  record.time_hours = time_hours;

  // Step 1: a URL of this provider (random unless pinned).
  const auto& names = testbed_->content_names(provider_index);
  const dns::DnsName domain =
      names[label_index ? *label_index % names.size() : rng.index(names.size())];
  record.domain = domain.to_string();

  // Step 2: CR-set via an ordinary ECS resolution (client's own /24).
  // Without a CR-set there is nothing to traceroute toward and nothing to
  // compare against, so the trial is recorded as failed — not thrown: one
  // bad trial must not abort a 45-trial campaign (a real vantage point
  // simply has a gap in its data for that round).
  dns::StubResolver stub = testbed_->make_stub(client, rng.next_u64());
  stub.set_registry(registry_);
  dns::ResolutionResult cr_result;
  try {
    const obs::Span phase(registry_, "measure.trial.resolve_cr");
    cr_result = stub.resolve_with_own_subnet(domain);
  } catch (const net::TransientError& e) {
    record.outcome = TrialOutcome::kFailed;
    record.failure = e.what();
    record.health.add(stub.stats());
    note("measure.trial.outcome.failed");
    return record;
  }
  if (!cr_result.ok()) {
    record.outcome = TrialOutcome::kFailed;
    record.failure = std::string("CR resolution for ") + domain.to_string() +
                     " answered " + dns::to_string(cr_result.rcode) +
                     (cr_result.nodata() ? " with no addresses" : "");
    record.health.add(stub.stats());
    note("measure.trial.outcome.failed");
    return record;
  }

  // Step 3: traceroute toward each CR; collect hops (dedupe by /24). Hop
  // names come from PTR lookups over the DNS path when configured, exactly
  // as traceroute tooling obtains them.
  //
  // A trial sees a few traceroutes of ~10 hops, so the bookkeeping is flat
  // vectors searched linearly. hop.rdns views point into ptr_cache's
  // strings, which move when the vector grows (short names live inside the
  // std::string), so a traceroute's views are taken only after its lookups
  // are done and the cache stops growing until the next traceroute.
  std::vector<net::Prefix> seen_subnets;
  std::vector<std::pair<net::Ipv4Addr, std::string>> ptr_cache;
  seen_subnets.reserve(16);
  ptr_cache.reserve(16);
  const auto cached_ptr = [&ptr_cache](net::Ipv4Addr ip) {
    return std::find_if(ptr_cache.begin(), ptr_cache.end(),
                        [ip](const auto& entry) { return entry.first == ip; });
  };
  // One phase span at a time; emplace closes the previous phase before
  // opening the next, all nested inside the trial span.
  std::optional<obs::Span> phase;
  phase.emplace(registry_, "measure.trial.traceroute");
  for (net::Ipv4Addr cr_addr : cr_result.addresses) {
    auto hops = world.traceroute(client, cr_addr, rng);
    if (config_.resolve_hop_names_via_dns) {
      const auto named = [](const topology::TracerouteHop& hop) {
        return !hop.is_private && hop.responded;
      };
      for (const auto& hop : hops) {
        if (named(hop) && cached_ptr(hop.ip) == ptr_cache.end()) {
          ptr_cache.emplace_back(hop.ip, stub.resolve_ptr(hop.ip));
        }
      }
      for (auto& hop : hops) {
        hop.rdns = named(hop) ? std::string_view(cached_ptr(hop.ip)->second)
                              : std::string_view();
      }
    }
    const auto usable = usable_hops(world, client, hops, config_.filter);
    for (std::size_t i = 0; i < hops.size(); ++i) {
      // The destination replica itself is the last hop; it is not an
      // upstream router, so skip it as an assimilation candidate.
      if (hops[i].ip == cr_addr || world.is_host(hops[i].ip)) continue;
      const net::Prefix subnet(hops[i].ip, 24);
      if (config_.dedupe_hop_subnets) {
        if (std::find(seen_subnets.begin(), seen_subnets.end(), subnet) !=
            seen_subnets.end()) {
          continue;
        }
        seen_subnets.push_back(subnet);
      }
      HopRecord hop;
      hop.ip = hops[i].ip;
      hop.subnet = subnet;
      hop.rdns = hops[i].rdns;
      hop.asn = hops[i].asn;
      hop.usable = usable[i];
      record.hops.push_back(std::move(hop));
    }
  }

  // Step 4: HR-set per usable hop via subnet assimilation. A hop whose
  // resolution keeps failing degrades the trial (that hop yields no HR-set
  // this round — downstream layers fall back to the client's own subnet)
  // but never fails it: the CR measurements remain valid.
  phase.emplace(registry_, "measure.trial.assimilate");
  for (auto& hop : record.hops) {
    if (!hop.usable) continue;
    try {
      const auto hr_result = stub.resolve(domain, hop.subnet);
      if (!hr_result.ok()) {
        if (hr_result.server_failure()) {
          ++record.health.hop_resolution_failures;
          note("measure.trial.hop_resolution_failures");
          record.outcome = TrialOutcome::kDegraded;
        }
        continue;
      }
      for (net::Ipv4Addr hr_addr : hr_result.addresses) {
        hop.hr.push_back({hr_addr, 0.0});
      }
    } catch (const net::TransientError&) {
      ++record.health.hop_resolution_failures;
      note("measure.trial.hop_resolution_failures");
      record.outcome = TrialOutcome::kDegraded;
    }
  }

  // Step 5: measure CRMs and HRMs — all from the client (footnote 1: no
  // measurements are ever performed from upstream nodes). A replica seen
  // several times in the trial is measured once and the value reused.
  phase.emplace(registry_, "measure.trial.measure");
  const std::uint64_t object_bytes =
      config_.object_bytes_min +
      rng.uniform(config_.object_bytes_max - config_.object_bytes_min + 1);
  std::vector<ReplicaMeasurement> measured;
  measured.reserve(16);
  auto measure = [&](net::Ipv4Addr replica) {
    const auto it =
        std::find_if(measured.begin(), measured.end(),
                     [replica](const ReplicaMeasurement& m) { return m.replica == replica; });
    if (it != measured.end()) return *it;
    ReplicaMeasurement m;
    m.replica = replica;
    m.rtt_ms = ping_ms(world, client, replica, rng, config_.ping);
    if (config_.measure_downloads) {
      // Back-to-back downloads (Fig. 4b/4c): the second finds a warm cache.
      m.download_first_ms = download_ms(world, client, replica, object_bytes,
                                        /*repeat_request=*/false, rng,
                                        config_.download_model);
      m.download_cached_ms = download_ms(world, client, replica, object_bytes,
                                         /*repeat_request=*/true, rng,
                                         config_.download_model);
    }
    measured.push_back(m);
    return m;
  };
  for (net::Ipv4Addr cr_addr : cr_result.addresses) {
    record.cr.push_back(measure(cr_addr));
  }
  for (auto& hop : record.hops) {
    for (auto& hr : hop.hr) {
      hr = measure(hr.replica);
    }
  }
  if (record.outcome == TrialOutcome::kDegraded) {
    record.failure = std::to_string(record.health.hop_resolution_failures) +
                     " hop resolution(s) failed";
  }
  record.health.add(stub.stats());
  phase.reset();

  // Step 6 (optional): Go-With-The-Winner racing — re-probe the first k CR
  // replicas with fresh draws, exactly what a client that measures at
  // resolution time before committing would see. Runs strictly after every
  // baseline draw, so a gwtw_k = 0 campaign is byte-identical to one from
  // before racing existed.
  if (config_.gwtw_k >= 2 && !record.cr.empty()) {
    const obs::Span race_span(registry_, "measure.trial.race");
    const std::size_t field_size =
        std::min(record.cr.size(), static_cast<std::size_t>(config_.gwtw_k));
    for (std::size_t i = 0; i < field_size; ++i) {
      ReplicaMeasurement m;
      m.replica = record.cr[i].replica;
      m.rtt_ms = ping_ms(world, client, m.replica, rng, config_.ping);
      record.race.push_back(m);
    }
    note("measure.trial.races");
    if (registry_ != nullptr) {
      registry_->observe_ms("measure.trial.race_winner_rtt_ms",
                            record.race_winner_rtt_ms());
    }
  }

  note(record.outcome == TrialOutcome::kDegraded ? "measure.trial.outcome.degraded"
                                                 : "measure.trial.outcome.ok");
  if (registry_ != nullptr) {
    // Simulated latencies (pure functions of the task), so these histograms
    // are as deterministic as the records themselves. First-replica CRM is
    // the §5 convention; HRMs cover every assimilated replica measured.
    if (!record.cr.empty()) {
      registry_->observe_ms("measure.trial.crm_ms", record.first_crm());
    }
    for (const auto& hop : record.hops) {
      for (const auto& hr : hop.hr) {
        registry_->observe_ms("measure.trial.hrm_ms", hr.rtt_ms);
      }
    }
  }
  return record;
}

std::vector<CampaignTask> TrialRunner::campaign_tasks(int trials_per_client,
                                                      double spacing_hours) const {
  const std::size_t clients = testbed_->clients().size();
  const std::size_t providers = testbed_->provider_count();
  std::vector<CampaignTask> tasks;
  tasks.reserve(clients * providers * static_cast<std::size_t>(trials_per_client));
  // Schedule jitter comes from its own derived stream, so the task list —
  // built serially here — is identical no matter how it is later executed.
  net::Rng schedule_rng = net::Rng::derive(seed_, kScheduleStream);
  for (int t = 0; t < trials_per_client; ++t) {
    // Trials are spaced 1-2 hours apart (paper §3.1.2) with jitter.
    const double when =
        t * spacing_hours + schedule_rng.uniform_real(0.0, spacing_hours / 2);
    for (std::size_t c = 0; c < clients; ++c) {
      for (std::size_t p = 0; p < providers; ++p) {
        tasks.push_back({c, p, static_cast<std::uint64_t>(t), when, std::nullopt});
      }
    }
  }
  return tasks;
}

std::vector<CampaignTask> TrialRunner::sporadic_tasks(
    int trials_per_client, const SporadicScheduleConfig& schedule) const {
  const std::size_t clients = testbed_->clients().size();
  const std::size_t providers = testbed_->provider_count();
  std::vector<CampaignTask> tasks;
  tasks.reserve(clients * providers * static_cast<std::size_t>(trials_per_client));
  for (std::size_t c = 0; c < clients; ++c) {
    // Each client is online at its own unpredictable times, drawn from a
    // per-client derived stream.
    net::Rng schedule_rng = net::Rng::derive(seed_, kScheduleStream, c + 1);
    const auto times = sporadic_trial_times(trials_per_client, schedule_rng, 0.0, schedule);
    for (std::size_t p = 0; p < providers; ++p) {
      for (std::size_t t = 0; t < times.size(); ++t) {
        tasks.push_back({c, p, static_cast<std::uint64_t>(t), times[t], std::nullopt});
      }
    }
  }
  return tasks;
}

std::vector<TrialRecord> TrialRunner::run_campaign(int trials_per_client,
                                                   double spacing_hours) {
  const auto tasks = campaign_tasks(trials_per_client, spacing_hours);
  std::vector<TrialRecord> records;
  records.reserve(tasks.size());
  for (const auto& task : tasks) records.push_back(run_task(task));
  return records;
}

std::vector<TrialRecord> TrialRunner::run_campaign_sporadic(
    int trials_per_client, const SporadicScheduleConfig& schedule) {
  const auto tasks = sporadic_tasks(trials_per_client, schedule);
  std::vector<TrialRecord> records;
  records.reserve(tasks.size());
  for (const auto& task : tasks) records.push_back(run_task(task));
  return records;
}

}  // namespace drongo::measure
