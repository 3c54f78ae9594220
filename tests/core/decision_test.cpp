// DecisionEngine: the §4.3 rules.
#include <gtest/gtest.h>

#include <utility>

#include "core/decision.hpp"
#include "net/error.hpp"

namespace drongo::core {
namespace {

/// Builds a trial for `domain` where one usable hop with `subnet` observed
/// the given latency ratio (CRM fixed at 100 ms, deployment convention).
measure::TrialRecord trial(const std::string& domain, const net::Prefix& subnet,
                           double ratio) {
  measure::TrialRecord t;
  t.provider = "Test";
  t.domain = domain;
  t.cr.push_back({net::Ipv4Addr(21, 0, 0, 1), 100.0});
  measure::HopRecord hop;
  hop.subnet = subnet;
  hop.usable = true;
  hop.hr.push_back({net::Ipv4Addr(22, 0, 0, 1), ratio * 100.0});
  t.hops.push_back(std::move(hop));
  return t;
}

/// A trial with several hops at once.
measure::TrialRecord trial_multi(const std::string& domain,
                                 const std::vector<std::pair<net::Prefix, double>>& hops) {
  measure::TrialRecord t;
  t.provider = "Test";
  t.domain = domain;
  t.cr.push_back({net::Ipv4Addr(21, 0, 0, 1), 100.0});
  for (const auto& [subnet, ratio] : hops) {
    measure::HopRecord hop;
    hop.subnet = subnet;
    hop.usable = true;
    hop.hr.push_back({net::Ipv4Addr(22, 0, 0, 1), ratio * 100.0});
    t.hops.push_back(std::move(hop));
  }
  return t;
}

const net::Prefix kSubnetA = net::Prefix::must_parse("20.1.0.0/24");
const net::Prefix kSubnetB = net::Prefix::must_parse("20.2.0.0/24");

DrongoParams params(double vf, double vt, std::size_t window = 5) {
  DrongoParams p;
  p.min_valley_frequency = vf;
  p.valley_threshold = vt;
  p.window_size = window;
  return p;
}

TEST(DecisionEngineTest, NoDataMeansNoAssimilation) {
  DecisionEngine engine(params(1.0, 0.95));
  EXPECT_FALSE(engine.choose("img.cdn.sim").has_value());
}

TEST(DecisionEngineTest, PartialWindowIsInsufficientData) {
  DecisionEngine engine(params(1.0, 0.95));
  for (int i = 0; i < 4; ++i) {
    engine.observe(trial("img.cdn.sim", kSubnetA, 0.5));
  }
  // Four perfect valleys but the window holds five: not enough.
  EXPECT_FALSE(engine.choose("img.cdn.sim").has_value());
  engine.observe(trial("img.cdn.sim", kSubnetA, 0.5));
  EXPECT_EQ(engine.choose("img.cdn.sim"), kSubnetA);
}

TEST(DecisionEngineTest, FrequencyThresholdGates) {
  // vf = 1.0 requires a valley in every window trial.
  DecisionEngine strict(params(1.0, 0.95));
  for (int i = 0; i < 4; ++i) strict.observe(trial("d.sim", kSubnetA, 0.5));
  strict.observe(trial("d.sim", kSubnetA, 1.2));  // one miss
  EXPECT_FALSE(strict.choose("d.sim").has_value());

  // vf = 0.8 tolerates exactly that.
  DecisionEngine lenient(params(0.8, 0.95));
  for (int i = 0; i < 4; ++i) lenient.observe(trial("d.sim", kSubnetA, 0.5));
  lenient.observe(trial("d.sim", kSubnetA, 1.2));
  EXPECT_EQ(lenient.choose("d.sim"), kSubnetA);
}

TEST(DecisionEngineTest, ValleyThresholdGates) {
  // Ratios of 0.9: valleys at vt 0.95 but not at vt 0.85.
  DecisionEngine strict(params(1.0, 0.85));
  DecisionEngine loose(params(1.0, 0.95));
  for (int i = 0; i < 5; ++i) {
    strict.observe(trial("d.sim", kSubnetA, 0.9));
    loose.observe(trial("d.sim", kSubnetA, 0.9));
  }
  EXPECT_FALSE(strict.choose("d.sim").has_value());
  EXPECT_EQ(loose.choose("d.sim"), kSubnetA);
}

TEST(DecisionEngineTest, HighestFrequencyWins) {
  DecisionEngine engine(params(0.2, 1.0));
  for (int i = 0; i < 5; ++i) {
    // A valleys every time; B only twice.
    engine.observe(trial_multi("d.sim", {{kSubnetA, 0.8}, {kSubnetB, i < 2 ? 0.7 : 1.1}}));
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(engine.choose("d.sim"), kSubnetA);
  }
}

TEST(DecisionEngineTest, TiesBrokenAcrossBothCandidates) {
  DecisionEngine engine(params(1.0, 1.0), /*seed=*/12345);
  for (int i = 0; i < 5; ++i) {
    engine.observe(trial_multi("d.sim", {{kSubnetA, 0.8}, {kSubnetB, 0.8}}));
  }
  std::set<net::Prefix> chosen;
  for (int i = 0; i < 50; ++i) {
    chosen.insert(*engine.choose("d.sim"));
  }
  EXPECT_EQ(chosen.size(), 2u);  // random tie-break hits both eventually
}

TEST(DecisionEngineTest, ConstChooseRescoresWithoutRetraining) {
  // Three ties at (vf 1.0, vt 0.95); only A is a valley at vt 0.75.
  DecisionEngine engine(params(1.0, 0.95), /*seed=*/77);
  const net::Prefix subnet_c = net::Prefix::must_parse("20.3.0.0/24");
  for (int i = 0; i < 5; ++i) {
    engine.observe(trial_multi("d.sim", {{kSubnetA, 0.7}, {kSubnetB, 0.8}, {subnet_c, 0.8}}));
  }
  // At the engine's own parameters, with a stream seeded like the engine's,
  // the const overload draws exactly what the mutable one does.
  net::Rng rng(77);
  for (int i = 0; i < 30; ++i) {
    EXPECT_EQ(std::as_const(engine).choose("d.sim", 0.95, 1.0, rng), engine.choose("d.sim"));
  }
  EXPECT_EQ(std::as_const(engine).choose("D.Sim", 0.75, 1.0, rng), kSubnetA);
  EXPECT_FALSE(std::as_const(engine).choose("d.sim", 0.5, 0.2, rng).has_value());
  EXPECT_FALSE(std::as_const(engine).choose("other.sim", 1.0, 0.0, rng).has_value());
  // One shortlist serves repeated picks with the same draws as choose().
  const auto shortlist = engine.shortlist("d.sim", 0.95, 1.0);
  EXPECT_EQ(shortlist.ties, 3u);
  EXPECT_DOUBLE_EQ(shortlist.best, 1.0);
  net::Rng picks(9);
  net::Rng chooses(9);
  for (int i = 0; i < 30; ++i) {
    EXPECT_EQ(DecisionEngine::pick(shortlist, picks),
              std::as_const(engine).choose("d.sim", 0.95, 1.0, chooses));
  }
  EXPECT_EQ(engine.shortlist("d.sim", 0.75, 1.0).ties, 1u);
  EXPECT_EQ(engine.shortlist("other.sim", 0.95, 1.0).ties, 0u);
  // A draw is taken only when some subnet qualifies.
  net::Rng untouched(5);
  net::Rng reference(5);
  (void)std::as_const(engine).choose("d.sim", 0.5, 0.2, untouched);
  EXPECT_EQ(untouched.next_u64(), reference.next_u64());
}

TEST(DecisionEngineTest, DomainsAreIsolated) {
  DecisionEngine engine(params(1.0, 0.95));
  for (int i = 0; i < 5; ++i) {
    engine.observe(trial("one.sim", kSubnetA, 0.5));
  }
  EXPECT_TRUE(engine.choose("one.sim").has_value());
  EXPECT_FALSE(engine.choose("other.sim").has_value());
  // Domain matching is case-insensitive.
  EXPECT_TRUE(engine.choose("ONE.sim").has_value());
}

TEST(DecisionEngineTest, UnusableHopsAreNotTracked) {
  DecisionEngine engine(params(0.2, 1.0));
  auto t = trial("d.sim", kSubnetA, 0.5);
  t.hops[0].usable = false;
  for (int i = 0; i < 5; ++i) engine.observe(t);
  EXPECT_FALSE(engine.choose("d.sim").has_value());
  EXPECT_EQ(engine.tracked_windows(), 0u);
}

TEST(DecisionEngineTest, ZeroFrequencyCandidateNeverChosen) {
  // Even at min_valley_frequency = 0, a subnet with no valleys must not be
  // picked (assimilation needs evidence of benefit).
  DecisionEngine engine(params(0.0, 1.0));
  for (int i = 0; i < 5; ++i) engine.observe(trial("d.sim", kSubnetA, 1.2));
  EXPECT_FALSE(engine.choose("d.sim").has_value());
}

TEST(DecisionEngineTest, CandidatesIntrospection) {
  DecisionEngine engine(params(0.6, 1.0));
  for (int i = 0; i < 5; ++i) {
    engine.observe(trial_multi("d.sim", {{kSubnetA, 0.8}, {kSubnetB, i < 2 ? 0.7 : 1.1}}));
  }
  const auto candidates = engine.candidates("d.sim");
  ASSERT_EQ(candidates.size(), 2u);
  for (const auto& c : candidates) {
    if (c.subnet == kSubnetA) {
      EXPECT_DOUBLE_EQ(c.valley_frequency, 1.0);
      EXPECT_TRUE(c.qualified);
    } else {
      EXPECT_DOUBLE_EQ(c.valley_frequency, 0.4);
      EXPECT_FALSE(c.qualified);
    }
  }
  EXPECT_TRUE(engine.candidates("unknown.sim").empty());
}

TEST(DecisionEngineTest, WindowSlidesWithNewEvidence) {
  DecisionEngine engine(params(1.0, 0.95));
  for (int i = 0; i < 5; ++i) engine.observe(trial("d.sim", kSubnetA, 0.5));
  EXPECT_TRUE(engine.choose("d.sim").has_value());
  // Five non-valleys push the old evidence out.
  for (int i = 0; i < 5; ++i) engine.observe(trial("d.sim", kSubnetA, 1.5));
  EXPECT_FALSE(engine.choose("d.sim").has_value());
}

TEST(DecisionEngineTest, ParameterValidation) {
  EXPECT_THROW(DecisionEngine(params(1.0, 0.0)), net::InvalidArgument);
  EXPECT_THROW(DecisionEngine(params(1.0, 1.5)), net::InvalidArgument);
  EXPECT_THROW(DecisionEngine(params(-0.1, 0.95)), net::InvalidArgument);
  EXPECT_THROW(DecisionEngine(params(1.1, 0.95)), net::InvalidArgument);
  EXPECT_NO_THROW(DecisionEngine(params(0.0, 1.0)));
  EXPECT_THROW(validate_thresholds(0.0, 1.0), net::InvalidArgument);
  EXPECT_THROW(validate_thresholds(0.95, -0.1), net::InvalidArgument);
  EXPECT_NO_THROW(validate_thresholds(1.0, 0.0));
}

}  // namespace
}  // namespace drongo::core
