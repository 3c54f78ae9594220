// The §5 Drongo evaluation: train/test campaigns and parameter sweeps
// behind Figures 7, 8, 9, 10, 11 and the headline numbers.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/decision.hpp"
#include "measure/stats.hpp"
#include "measure/testbed.hpp"
#include "measure/trial.hpp"

namespace drongo::analysis {

/// Campaign shape (paper: 10 trials per client-provider pair over a month;
/// trials 0-4 train, 5-9 test).
struct EvaluationConfig {
  int training_trials = 5;
  int test_trials = 5;
  double spacing_hours = 72.0;  ///< a month / 10 trials
  core::RatioConvention convention = core::RatioConvention::deployment();
  /// Worker threads for the measurement campaign (0 = hardware
  /// concurrency, 1 = serial). Results are identical for any value.
  int threads = 1;
};

/// One Drongo decision applied to one test trial.
struct EvalSample {
  std::string provider;
  std::size_t client_index = 0;
  bool assimilated = false;
  /// Achieved latency ratio for the query: first-HR(chosen subnet) over
  /// first-CR when assimilated; exactly 1.0 otherwise (the client got what
  /// it would have gotten anyway).
  double ratio = 1.0;
};

/// Collects a RIPE-style campaign once, then evaluates Drongo's decision
/// rule over it for any (vf, vt) without re-measuring — the sweep in §5.1
/// is hundreds of parameter points over one fixed dataset.
class Evaluation {
 public:
  /// Runs the campaign: (training + test) trials for every client-provider
  /// pair, domain pinned per pair. The testbed is borrowed.
  Evaluation(measure::Testbed* testbed, std::uint64_t seed,
             EvaluationConfig config = {});

  [[nodiscard]] const EvaluationConfig& config() const { return config_; }

  /// Applies Drongo with the given parameters to every test trial, scoring
  /// the windows trained at construction. Read-only: several threads may
  /// call it on one Evaluation at once. Throws net::InvalidArgument for a
  /// vt outside (0, 1] or a vf outside [0, 1].
  [[nodiscard]] std::vector<EvalSample> evaluate(double min_valley_frequency,
                                                 double valley_threshold) const;

  // ---- Figure-level summaries --------------------------------------------

  /// Mean ratio over ALL samples (Figure 7's y value at one (vf, vt)).
  [[nodiscard]] double overall_mean_ratio(double vf, double vt) const;

  /// Mean ratio over assimilated samples only (Figure 8); 1.0 when none.
  [[nodiscard]] double assimilated_mean_ratio(double vf, double vt) const;

  /// Fraction of clients with at least one assimilated query (Figure 9).
  [[nodiscard]] double fraction_clients_affected(double vf, double vt) const;

  /// Per-provider mean ratio over all samples (Figure 10 at one (vf, vt)).
  [[nodiscard]] std::map<std::string, double> per_provider_mean_ratio(double vf,
                                                                      double vt) const;

  /// Per-provider ratio distribution over assimilated samples (Figure 11).
  [[nodiscard]] std::map<std::string, measure::BoxStats> per_provider_assimilated_box(
      double vf, double vt) const;

  /// Providers in campaign order.
  [[nodiscard]] const std::vector<std::string>& providers() const { return providers_; }

  /// Number of clients in the campaign.
  [[nodiscard]] std::size_t client_count() const { return client_count_; }

  /// Access to the raw campaign records of one client-provider pair
  /// (training first, then test).
  [[nodiscard]] const std::vector<measure::TrialRecord>& records(
      std::size_t client_index, std::size_t provider_index) const;

 private:
  EvaluationConfig config_;
  std::size_t client_count_ = 0;
  std::vector<std::string> providers_;
  /// [client][provider] -> trials in time order.
  std::vector<std::vector<std::vector<measure::TrialRecord>>> campaign_;
  /// [client * providers + provider] -> engine trained on the pair's
  /// training trials.
  std::vector<core::DecisionEngine> engines_;
};

/// Per-client view of an evaluation: who actually benefits?
struct ClientOutcome {
  std::size_t client_index = 0;
  double mean_ratio = 1.0;        ///< across all the client's test queries
  std::size_t assimilated = 0;    ///< queries Drongo changed
  std::size_t queries = 0;
};

/// Aggregates evaluate() samples per client; clients sorted by mean ratio
/// (biggest winners first). The paper's "69.93% of clients affected" and
/// "affected requests improve 24.89% median" are slices of this view.
std::vector<ClientOutcome> per_client_outcomes(const std::vector<EvalSample>& samples,
                                               std::size_t client_count);

/// Grid sweep over (vf, vt) returning Figure-7/8/9 curves.
struct SweepPoint {
  double vf = 0.0;
  double vt = 0.0;
  double overall_ratio = 1.0;
  double assimilated_ratio = 1.0;
  double clients_affected = 0.0;
};
std::vector<SweepPoint> parameter_sweep(const Evaluation& evaluation,
                                        const std::vector<double>& vf_values,
                                        const std::vector<double>& vt_values);

/// The best (minimum overall ratio) point of a sweep.
SweepPoint best_point(const std::vector<SweepPoint>& sweep);

/// Per-provider optimal vf (Figure 10): for each provider, the vf whose
/// best-over-vt mean ratio is lowest; returns (vf*, vt*, ratio curve vs vt).
struct ProviderOptimum {
  std::string provider;
  double best_vf = 1.0;
  double best_vt = 0.95;
  double best_ratio = 1.0;
  /// Mean ratio vs vt at best_vf (the provider's Figure-10 curve).
  std::vector<std::pair<double, double>> curve;
};
std::vector<ProviderOptimum> per_provider_optimum(const Evaluation& evaluation,
                                                  const std::vector<double>& vf_values,
                                                  const std::vector<double>& vt_values);

}  // namespace drongo::analysis
