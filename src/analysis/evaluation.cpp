#include "analysis/evaluation.hpp"

#include <algorithm>
#include <set>

#include "measure/campaign.hpp"
#include "net/error.hpp"

namespace drongo::analysis {

Evaluation::Evaluation(measure::Testbed* testbed, std::uint64_t seed,
                       EvaluationConfig config)
    : config_(config) {
  if (testbed == nullptr) throw net::InvalidArgument("null Testbed");
  measure::TrialRunner runner(testbed, seed);
  client_count_ = testbed->clients().size();
  const std::size_t providers = testbed->provider_count();
  for (std::size_t p = 0; p < providers; ++p) {
    providers_.push_back(testbed->profile(p).name);
  }

  // Build the campaign as an explicit task list and execute it through the
  // parallel runner: trial t of pair (c, p) is the same derived-stream
  // trial regardless of thread count, so the scatter below fills
  // campaign_[c][p] with identical records at any parallelism.
  const int total = config_.training_trials + config_.test_trials;
  std::vector<measure::CampaignTask> tasks;
  tasks.reserve(client_count_ * providers * static_cast<std::size_t>(total));
  for (std::size_t c = 0; c < client_count_; ++c) {
    for (std::size_t p = 0; p < providers; ++p) {
      for (int t = 0; t < total; ++t) {
        // Domain pinned per (client, provider) so windows accumulate.
        tasks.push_back({c, p, static_cast<std::uint64_t>(t),
                         t * config_.spacing_hours,
                         /*label_index=*/c % 3});
      }
    }
  }
  measure::ParallelCampaignRunner parallel(&runner, {.threads = config_.threads});
  auto records = parallel.run(tasks);

  campaign_.resize(client_count_);
  for (auto& per_client : campaign_) per_client.resize(providers);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    campaign_[tasks[i].client_index][tasks[i].provider_index].push_back(
        std::move(records[i]));
  }

  // The training windows depend on the records alone, never on (vf, vt),
  // so each pair's engine is trained once here and every evaluate() only
  // re-scores it.
  core::DrongoParams params;
  params.window_size = static_cast<std::size_t>(config_.training_trials);
  params.convention = config_.convention;
  engines_.reserve(client_count_ * providers);
  for (const auto& per_client : campaign_) {
    for (const auto& trials : per_client) {
      core::DecisionEngine& engine = engines_.emplace_back(params);
      for (int t = 0; t < config_.training_trials; ++t) {
        engine.observe(trials[static_cast<std::size_t>(t)]);
      }
    }
  }
}

const std::vector<measure::TrialRecord>& Evaluation::records(
    std::size_t client_index, std::size_t provider_index) const {
  return campaign_.at(client_index).at(provider_index);
}

std::vector<EvalSample> Evaluation::evaluate(double min_valley_frequency,
                                             double valley_threshold) const {
  core::validate_thresholds(valley_threshold, min_valley_frequency);
  std::vector<EvalSample> samples;
  samples.reserve(client_count_ * providers_.size() *
                  static_cast<std::size_t>(config_.test_trials));

  for (std::size_t c = 0; c < client_count_; ++c) {
    for (std::size_t p = 0; p < providers_.size(); ++p) {
      const auto& trials = campaign_[c][p];
      const core::DecisionEngine& engine = engines_[c * providers_.size() + p];
      // Deterministic tie-breaking per (client, provider) so sweeps are
      // reproducible point to point.
      net::Rng rng((c + 1) * 1000003ULL + p);
      // The pair's test trials share one pinned domain, so one shortlist
      // usually serves all of them; only the tie-break draw is per trial.
      core::DecisionEngine::Shortlist shortlist;
      const std::string* shortlisted = nullptr;  // the domain `shortlist` is for
      for (std::size_t t = static_cast<std::size_t>(config_.training_trials);
           t < trials.size(); ++t) {
        const auto& trial = trials[t];
        EvalSample sample;
        sample.provider = providers_[p];
        sample.client_index = c;
        if (shortlisted == nullptr || *shortlisted != trial.domain) {
          shortlist = engine.shortlist(trial.domain, valley_threshold, min_valley_frequency);
          shortlisted = &trial.domain;
        }
        const auto chosen = core::DecisionEngine::pick(shortlist, rng);
        if (chosen) {
          // Drongo would issue the test query with this subnet; the test
          // trial holds the HR-set that subnet received at test time. If
          // the subnet didn't appear in the test trial's routes (path
          // change), the assimilated answer is unknowable from the record
          // and the query is counted as unaffected.
          const measure::HopRecord* hop = nullptr;
          for (const auto& h : trial.hops) {
            if (h.subnet == *chosen) {
              hop = &h;
              break;
            }
          }
          if (hop != nullptr && !hop->hr.empty() && !trial.cr.empty()) {
            const auto ratio = core::latency_ratio(trial, *hop, config_.convention);
            if (ratio) {
              sample.assimilated = true;
              sample.ratio = *ratio;
            }
          }
        }
        samples.push_back(sample);
      }
    }
  }
  return samples;
}

double Evaluation::overall_mean_ratio(double vf, double vt) const {
  const auto samples = evaluate(vf, vt);
  if (samples.empty()) return 1.0;
  double sum = 0.0;
  for (const auto& s : samples) sum += s.ratio;
  return sum / static_cast<double>(samples.size());
}

double Evaluation::assimilated_mean_ratio(double vf, double vt) const {
  const auto samples = evaluate(vf, vt);
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& s : samples) {
    if (s.assimilated) {
      sum += s.ratio;
      ++n;
    }
  }
  return n == 0 ? 1.0 : sum / static_cast<double>(n);
}

double Evaluation::fraction_clients_affected(double vf, double vt) const {
  const auto samples = evaluate(vf, vt);
  std::set<std::size_t> affected;
  for (const auto& s : samples) {
    if (s.assimilated) affected.insert(s.client_index);
  }
  return client_count_ == 0
             ? 0.0
             : static_cast<double>(affected.size()) / static_cast<double>(client_count_);
}

std::map<std::string, double> Evaluation::per_provider_mean_ratio(double vf,
                                                                  double vt) const {
  const auto samples = evaluate(vf, vt);
  std::map<std::string, std::pair<double, std::size_t>> acc;
  for (const auto& s : samples) {
    auto& [sum, n] = acc[s.provider];
    sum += s.ratio;
    ++n;
  }
  std::map<std::string, double> out;
  for (const auto& [provider, sum_n] : acc) {
    out[provider] = sum_n.first / static_cast<double>(sum_n.second);
  }
  return out;
}

std::map<std::string, measure::BoxStats> Evaluation::per_provider_assimilated_box(
    double vf, double vt) const {
  const auto samples = evaluate(vf, vt);
  std::map<std::string, std::vector<double>> ratios;
  for (const auto& s : samples) {
    if (s.assimilated) ratios[s.provider].push_back(s.ratio);
  }
  std::map<std::string, measure::BoxStats> out;
  for (auto& [provider, values] : ratios) {
    out[provider] = measure::box_stats(std::move(values));
  }
  return out;
}

std::vector<ClientOutcome> per_client_outcomes(const std::vector<EvalSample>& samples,
                                               std::size_t client_count) {
  std::vector<ClientOutcome> outcomes(client_count);
  for (std::size_t c = 0; c < client_count; ++c) outcomes[c].client_index = c;
  std::vector<double> sums(client_count, 0.0);
  for (const auto& sample : samples) {
    if (sample.client_index >= client_count) continue;
    ClientOutcome& outcome = outcomes[sample.client_index];
    sums[sample.client_index] += sample.ratio;
    ++outcome.queries;
    if (sample.assimilated) ++outcome.assimilated;
  }
  for (std::size_t c = 0; c < client_count; ++c) {
    if (outcomes[c].queries > 0) {
      outcomes[c].mean_ratio = sums[c] / static_cast<double>(outcomes[c].queries);
    }
  }
  std::sort(outcomes.begin(), outcomes.end(),
            [](const ClientOutcome& a, const ClientOutcome& b) {
              return a.mean_ratio < b.mean_ratio;
            });
  return outcomes;
}

std::vector<SweepPoint> parameter_sweep(const Evaluation& evaluation,
                                        const std::vector<double>& vf_values,
                                        const std::vector<double>& vt_values) {
  std::vector<SweepPoint> sweep;
  sweep.reserve(vf_values.size() * vt_values.size());
  for (double vf : vf_values) {
    for (double vt : vt_values) {
      const auto samples = evaluation.evaluate(vf, vt);
      SweepPoint point;
      point.vf = vf;
      point.vt = vt;
      double sum = 0.0;
      double assim_sum = 0.0;
      std::size_t assim_n = 0;
      std::set<std::size_t> affected;
      for (const auto& s : samples) {
        sum += s.ratio;
        if (s.assimilated) {
          assim_sum += s.ratio;
          ++assim_n;
          affected.insert(s.client_index);
        }
      }
      point.overall_ratio = samples.empty() ? 1.0 : sum / static_cast<double>(samples.size());
      point.assimilated_ratio = assim_n == 0 ? 1.0 : assim_sum / static_cast<double>(assim_n);
      point.clients_affected =
          evaluation.client_count() == 0
              ? 0.0
              : static_cast<double>(affected.size()) /
                    static_cast<double>(evaluation.client_count());
      sweep.push_back(point);
    }
  }
  return sweep;
}

SweepPoint best_point(const std::vector<SweepPoint>& sweep) {
  if (sweep.empty()) throw net::InvalidArgument("empty sweep");
  return *std::min_element(sweep.begin(), sweep.end(),
                           [](const SweepPoint& a, const SweepPoint& b) {
                             return a.overall_ratio < b.overall_ratio;
                           });
}

std::vector<ProviderOptimum> per_provider_optimum(const Evaluation& evaluation,
                                                  const std::vector<double>& vf_values,
                                                  const std::vector<double>& vt_values) {
  // provider -> vf -> (vt -> mean ratio)
  std::map<std::string, std::map<double, std::vector<std::pair<double, double>>>> curves;
  for (double vf : vf_values) {
    for (double vt : vt_values) {
      const auto per_provider = evaluation.per_provider_mean_ratio(vf, vt);
      for (const auto& [provider, ratio] : per_provider) {
        curves[provider][vf].emplace_back(vt, ratio);
      }
    }
  }
  std::vector<ProviderOptimum> out;
  for (const auto& provider : evaluation.providers()) {
    ProviderOptimum opt;
    opt.provider = provider;
    double best = 1e300;
    for (const auto& [vf, curve] : curves[provider]) {
      for (const auto& [vt, ratio] : curve) {
        if (ratio < best) {
          best = ratio;
          opt.best_vf = vf;
          opt.best_vt = vt;
          opt.best_ratio = ratio;
        }
      }
    }
    opt.curve = curves[provider][opt.best_vf];
    out.push_back(std::move(opt));
  }
  return out;
}

}  // namespace drongo::analysis
