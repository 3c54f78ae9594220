// Evaluation (§5 machinery) on a small testbed, plus render helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "analysis/evaluation.hpp"
#include "analysis/render.hpp"
#include "net/error.hpp"
#include "obs/metrics.hpp"

namespace drongo::analysis {
namespace {

measure::TestbedConfig tiny_config() {
  measure::TestbedConfig config;
  config.as_config.tier1_count = 4;
  config.as_config.tier2_count = 10;
  config.as_config.stub_count = 40;
  config.client_count = 10;
  config.seed = 81;
  return config;
}

class EvaluationFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    testbed_ = new measure::Testbed(tiny_config());
    evaluation_ = new Evaluation(testbed_, 82);
  }
  static void TearDownTestSuite() {
    delete evaluation_;
    delete testbed_;
    evaluation_ = nullptr;
    testbed_ = nullptr;
  }

  static measure::Testbed* testbed_;
  static Evaluation* evaluation_;
};

measure::Testbed* EvaluationFixture::testbed_ = nullptr;
Evaluation* EvaluationFixture::evaluation_ = nullptr;

TEST_F(EvaluationFixture, CampaignShape) {
  EXPECT_EQ(evaluation_->client_count(), 10u);
  EXPECT_EQ(evaluation_->providers().size(), 6u);
  const auto& trials = evaluation_->records(0, 0);
  EXPECT_EQ(trials.size(), 10u);  // 5 training + 5 test
  // Pinned domain across the campaign of one pair.
  for (const auto& t : trials) {
    EXPECT_EQ(t.domain, trials[0].domain);
  }
  // Time-ordered.
  for (std::size_t i = 1; i < trials.size(); ++i) {
    EXPECT_GT(trials[i].time_hours, trials[i - 1].time_hours);
  }
}

TEST_F(EvaluationFixture, EvaluateProducesOneSamplePerTestTrial) {
  const auto samples = evaluation_->evaluate(1.0, 0.95);
  EXPECT_EQ(samples.size(), 10u * 6u * 5u);
  for (const auto& s : samples) {
    if (!s.assimilated) {
      EXPECT_DOUBLE_EQ(s.ratio, 1.0);
    } else {
      EXPECT_GT(s.ratio, 0.0);
    }
  }
}

TEST_F(EvaluationFixture, EvaluateIsDeterministic) {
  const auto a = evaluation_->evaluate(0.6, 0.9);
  const auto b = evaluation_->evaluate(0.6, 0.9);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].assimilated, b[i].assimilated);
    EXPECT_DOUBLE_EQ(a[i].ratio, b[i].ratio);
  }
}

TEST_F(EvaluationFixture, StricterFrequencyAffectsFewerClients) {
  const double loose = evaluation_->fraction_clients_affected(0.2, 1.0);
  const double strict = evaluation_->fraction_clients_affected(1.0, 1.0);
  EXPECT_GE(loose, strict);
  EXPECT_GT(loose, 0.0);
}

TEST_F(EvaluationFixture, LowerThresholdAffectsFewerClients) {
  const double high_vt = evaluation_->fraction_clients_affected(0.2, 1.0);
  const double low_vt = evaluation_->fraction_clients_affected(0.2, 0.3);
  EXPECT_GE(high_vt, low_vt);
}

TEST_F(EvaluationFixture, DrongoHelpsOverall) {
  // At the paper's optimal parameters the aggregate ratio is <= 1 (Drongo
  // never hurts on average in this world).
  EXPECT_LE(evaluation_->overall_mean_ratio(1.0, 0.95), 1.001);
  EXPECT_LE(evaluation_->assimilated_mean_ratio(1.0, 0.95), 1.0);
}

TEST_F(EvaluationFixture, SweepCoversGridAndBestPointIsMinimal) {
  const std::vector<double> vfs{0.2, 1.0};
  const std::vector<double> vts{0.5, 0.95};
  const auto sweep = parameter_sweep(*evaluation_, vfs, vts);
  EXPECT_EQ(sweep.size(), 4u);
  const auto best = best_point(sweep);
  for (const auto& p : sweep) {
    EXPECT_GE(p.overall_ratio, best.overall_ratio);
  }
  EXPECT_THROW(best_point({}), net::InvalidArgument);
}

TEST_F(EvaluationFixture, PerProviderBreakdownsCoverAllProviders) {
  const auto ratios = evaluation_->per_provider_mean_ratio(1.0, 0.95);
  EXPECT_EQ(ratios.size(), 6u);
  const auto optima = per_provider_optimum(*evaluation_, {0.6, 1.0}, {0.9, 0.95});
  EXPECT_EQ(optima.size(), 6u);
  for (const auto& opt : optima) {
    EXPECT_FALSE(opt.curve.empty());
    EXPECT_GT(opt.best_ratio, 0.0);
    EXPECT_LE(opt.best_ratio, 1.001);
  }
}

TEST_F(EvaluationFixture, PerClientOutcomesAggregateCorrectly) {
  const auto samples = evaluation_->evaluate(0.6, 0.95);
  const auto outcomes = per_client_outcomes(samples, evaluation_->client_count());
  ASSERT_EQ(outcomes.size(), evaluation_->client_count());
  std::size_t total_queries = 0;
  std::size_t total_assimilated = 0;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    total_queries += outcomes[i].queries;
    total_assimilated += outcomes[i].assimilated;
    if (i > 0) {
      EXPECT_GE(outcomes[i].mean_ratio, outcomes[i - 1].mean_ratio);  // sorted
    }
  }
  EXPECT_EQ(total_queries, samples.size());
  std::size_t expected_assimilated = 0;
  for (const auto& s : samples) expected_assimilated += s.assimilated ? 1 : 0;
  EXPECT_EQ(total_assimilated, expected_assimilated);
}

// ---- the sweep against the retrain-per-point oracle ------------------------

/// The perfbench campaign grid, plus the vf = 0.0 edge (vt = 1.0 is in it).
const std::vector<double> kGridVf = {0.0, 0.2, 0.4, 0.6, 0.8, 1.0};
const std::vector<double> kGridVt = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7,
                                     0.75, 0.8, 0.85, 0.9, 0.95, 1.0};

/// What the oracle saw while deciding one grid point.
struct OracleStats {
  std::size_t max_ties = 0;         ///< largest tie set of qualified subnets
  std::uint64_t window_misses = 0;  ///< degraded hops that hit a trained window
};

/// evaluate() as it was before the windows were trained once: a fresh
/// engine per (client, provider) pair per point, with the point's (vf, vt),
/// trained on the pair's training trials, and the §4.3 choice as the engine
/// made it then (every qualified subnet at the best valley frequency
/// collected in subnet order, one drawn from a stream seeded per pair).
/// The choice is spelled out here rather than taken from
/// DecisionEngine::choose, so a fault in the engine's tie-break cannot hide
/// from the comparison.
std::vector<EvalSample> oracle_evaluate(const Evaluation& evaluation, double vf, double vt,
                                        OracleStats& stats) {
  const EvaluationConfig& config = evaluation.config();
  std::vector<EvalSample> samples;
  for (std::size_t c = 0; c < evaluation.client_count(); ++c) {
    for (std::size_t p = 0; p < evaluation.providers().size(); ++p) {
      const auto& trials = evaluation.records(c, p);
      core::DrongoParams params;
      params.valley_threshold = vt;
      params.min_valley_frequency = vf;
      params.window_size = static_cast<std::size_t>(config.training_trials);
      params.convention = config.convention;
      core::DecisionEngine engine(params);
      obs::Registry registry;
      engine.set_registry(&registry);
      for (int t = 0; t < config.training_trials; ++t) {
        engine.observe(trials[static_cast<std::size_t>(t)]);
      }
      const obs::Snapshot snapshot = registry.snapshot();
      const auto misses = snapshot.counters.find("core.engine.window_misses");
      if (misses != snapshot.counters.end()) stats.window_misses += misses->second;

      net::Rng rng((c + 1) * 1000003ULL + p);
      for (std::size_t t = static_cast<std::size_t>(config.training_trials); t < trials.size();
           ++t) {
        const auto& trial = trials[t];
        double best_frequency = -1.0;
        std::vector<net::Prefix> best;
        for (const auto& candidate : engine.candidates(trial.domain)) {
          const double frequency = candidate.valley_frequency;
          if (candidate.observations < params.window_size) continue;  // not full
          if (frequency < vf || frequency <= 0.0) continue;
          if (frequency > best_frequency) {
            best_frequency = frequency;
            best.clear();
          }
          if (frequency == best_frequency) best.push_back(candidate.subnet);
        }
        stats.max_ties = std::max(stats.max_ties, best.size());

        EvalSample sample;
        sample.provider = evaluation.providers()[p];
        sample.client_index = c;
        if (!best.empty()) {
          const net::Prefix chosen = best[rng.index(best.size())];
          const auto hop = std::find_if(trial.hops.begin(), trial.hops.end(),
                                        [&](const auto& h) { return h.subnet == chosen; });
          if (hop != trial.hops.end() && !hop->hr.empty() && !trial.cr.empty()) {
            if (const auto ratio = core::latency_ratio(trial, *hop, config.convention)) {
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

void expect_same_samples(const std::vector<EvalSample>& got, const std::vector<EvalSample>& want,
                         double vf, double vt) {
  ASSERT_EQ(got.size(), want.size()) << "vf " << vf << " vt " << vt;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].provider, want[i].provider) << "sample " << i << " vf " << vf << " vt " << vt;
    EXPECT_EQ(got[i].client_index, want[i].client_index) << "sample " << i;
    EXPECT_EQ(got[i].assimilated, want[i].assimilated)
        << "sample " << i << " vf " << vf << " vt " << vt;
    EXPECT_EQ(got[i].ratio, want[i].ratio) << "sample " << i << " vf " << vf << " vt " << vt;
  }
}

/// Every grid point of `evaluation` against the oracle; returns what the
/// oracle saw over the whole grid.
OracleStats expect_grid_matches_oracle(const Evaluation& evaluation) {
  OracleStats stats;
  std::size_t assimilated = 0;
  for (double vf : kGridVf) {
    for (double vt : kGridVt) {
      const auto got = evaluation.evaluate(vf, vt);
      expect_same_samples(got, oracle_evaluate(evaluation, vf, vt, stats), vf, vt);
      for (const auto& s : got) assimilated += s.assimilated ? 1 : 0;
    }
  }
  EXPECT_GT(assimilated, 0u) << "no point assimilated anything: the comparison is vacuous";
  return stats;
}

TEST_F(EvaluationFixture, SweepMatchesRetrainPerPointOracle) {
  const OracleStats stats = expect_grid_matches_oracle(*evaluation_);
  // Some point had to break a tie, so the rng draw path is compared too.
  EXPECT_GE(stats.max_ties, 2u);
}

TEST(EvaluationOracleTest, SweepMatchesOracleUnderChaosFaults) {
  measure::TestbedConfig config = tiny_config();
  config.fault_profile = dns::FaultProfile::chaos();
  measure::Testbed testbed(config);
  const Evaluation evaluation(&testbed, 83);
  std::size_t failed = 0;
  std::size_t degraded = 0;
  for (std::size_t c = 0; c < evaluation.client_count(); ++c) {
    for (std::size_t p = 0; p < evaluation.providers().size(); ++p) {
      for (const auto& trial : evaluation.records(c, p)) {
        failed += trial.failed() ? 1 : 0;
        degraded += trial.outcome == measure::TrialOutcome::kDegraded ? 1 : 0;
      }
    }
  }
  EXPECT_GT(failed, 0u);
  EXPECT_GT(degraded, 0u);
  const OracleStats stats = expect_grid_matches_oracle(evaluation);
  EXPECT_GT(stats.window_misses, 0u);
  EXPECT_GE(stats.max_ties, 2u);
}

TEST_F(EvaluationFixture, EvaluateValidatesThresholds) {
  for (const double vt : {0.0, -0.1, 1.0001, 2.0}) {
    EXPECT_THROW((void)evaluation_->evaluate(0.5, vt), net::InvalidArgument) << "vt " << vt;
  }
  for (const double vf : {-0.01, 1.0001, 2.0}) {
    EXPECT_THROW((void)evaluation_->evaluate(vf, 0.95), net::InvalidArgument) << "vf " << vf;
  }
  // The closed ends of both ranges are valid parameters.
  EXPECT_EQ(evaluation_->evaluate(0.0, 1.0).size(), 10u * 6u * 5u);
}

TEST_F(EvaluationFixture, ConcurrentEvaluateMatchesSerial) {
  // evaluate() is read-only: four threads sweeping one Evaluation at once
  // must each see exactly the serial samples.
  const std::vector<std::pair<double, double>> points = {
      {0.2, 0.9}, {0.6, 0.95}, {1.0, 1.0}, {0.0, 0.5}, {0.8, 0.75}};
  std::vector<std::vector<EvalSample>> serial;
  for (const auto& [vf, vt] : points) serial.push_back(evaluation_->evaluate(vf, vt));

  constexpr int kThreads = 4;
  std::vector<std::vector<std::vector<EvalSample>>> got(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      for (int round = 0; round < 3; ++round) {
        for (std::size_t k = 0; k < points.size(); ++k) {
          // Each thread walks the points from a different start.
          const auto& [vf, vt] = points[(k + static_cast<std::size_t>(i)) % points.size()];
          got[static_cast<std::size_t>(i)].push_back(evaluation_->evaluate(vf, vt));
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < kThreads; ++i) {
    ASSERT_EQ(got[static_cast<std::size_t>(i)].size(), 3 * points.size());
    for (std::size_t n = 0; n < got[static_cast<std::size_t>(i)].size(); ++n) {
      const std::size_t k = (n % points.size() + static_cast<std::size_t>(i)) % points.size();
      expect_same_samples(got[static_cast<std::size_t>(i)][n], serial[k], points[k].first,
                          points[k].second);
    }
  }
}

TEST(PerClientOutcomesTest, EmptyAndOutOfRangeSamples) {
  const auto empty = per_client_outcomes({}, 3);
  ASSERT_EQ(empty.size(), 3u);
  for (const auto& o : empty) {
    EXPECT_DOUBLE_EQ(o.mean_ratio, 1.0);
    EXPECT_EQ(o.queries, 0u);
  }
  std::vector<EvalSample> weird(1);
  weird[0].client_index = 99;  // outside the population: ignored
  const auto outcomes = per_client_outcomes(weird, 2);
  EXPECT_EQ(outcomes[0].queries + outcomes[1].queries, 0u);
}

// ---- render helpers ---------------------------------------------------------

TEST(RenderTest, FmtPrecision) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(5.0, 0), "5");
  EXPECT_EQ(fmt(-0.125, 3), "-0.125");
}

TEST(RenderTest, TableAlignsColumns) {
  const auto table = render_table("T", {"a", "long-header"},
                                  {{"xxxxxx", "1"}, {"y", "2"}});
  EXPECT_NE(table.find("== T =="), std::string::npos);
  EXPECT_NE(table.find("long-header"), std::string::npos);
  // Each data row present.
  EXPECT_NE(table.find("xxxxxx"), std::string::npos);
  EXPECT_NE(table.find("y"), std::string::npos);
}

TEST(RenderTest, SeriesRendersPairs) {
  const auto text = render_series("S", "x", "y", {{1.0, 2.0}, {3.0, 4.0}}, 1);
  EXPECT_NE(text.find("1.0"), std::string::npos);
  EXPECT_NE(text.find("4.0"), std::string::npos);
}

TEST(RenderTest, BoxRendersWithinAxis) {
  measure::BoxStats box;
  box.p25 = 0.4;
  box.median = 0.5;
  box.p75 = 0.6;
  box.whisker_low = 0.2;
  box.whisker_high = 0.9;
  box.count = 10;
  const auto line = render_box("label", box, 0.0, 1.0, 40);
  EXPECT_NE(line.find('M'), std::string::npos);
  EXPECT_NE(line.find("med=0.50"), std::string::npos);
  EXPECT_NE(line.find("n=10"), std::string::npos);
}

}  // namespace
}  // namespace drongo::analysis
