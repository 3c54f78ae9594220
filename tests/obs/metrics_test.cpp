// obs::Registry semantics: counters sum, gauges merge by maximum, histogram
// percentile estimates agree with measure::percentile on golden inputs, and
// multi-threaded collection merges to the same snapshot a serial run
// produces.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "measure/stats.hpp"
#include "net/rng.hpp"

namespace obs = drongo::obs;

namespace {

TEST(Counters, SumAcrossCallsAndDefaultToOne) {
  obs::Registry registry;
  registry.add("a.queries");
  registry.add("a.queries", 4);
  registry.add("b.retries", 0);  // creates the name even at zero delta
  const auto snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.counters.size(), 2u);
  EXPECT_EQ(snapshot.counters.at("a.queries"), 5u);
  EXPECT_EQ(snapshot.counters.at("b.retries"), 0u);
}

TEST(Counters, MergeSumsAcrossThreads) {
  obs::Registry registry;
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&registry] {
      for (int i = 0; i < 1000; ++i) registry.add("x.events");
    });
  }
  for (auto& t : workers) t.join();
  EXPECT_EQ(registry.snapshot().counters.at("x.events"), 4000u);
}

TEST(Gauges, MergeByMaximum) {
  obs::Registry registry;
  std::thread low([&registry] { registry.gauge("windows", 3); });
  std::thread high([&registry] { registry.gauge("windows", 7); });
  low.join();
  high.join();
  registry.gauge("windows", 5);
  EXPECT_EQ(registry.snapshot().gauges.at("windows"), 7);
}

TEST(Reset, ClearsDataButRegistryStaysUsable) {
  obs::Registry registry;
  registry.add("n", 3);
  registry.observe_ms("h", 1.0);
  registry.reset();
  auto snapshot = registry.snapshot();
  EXPECT_TRUE(snapshot.counters.empty());
  EXPECT_TRUE(snapshot.histograms.empty());
  registry.add("n");
  EXPECT_EQ(registry.snapshot().counters.at("n"), 1u);
}

TEST(Histograms, CountSumMinMax) {
  obs::Registry registry;
  registry.observe_ms("lat", 1.0);
  registry.observe_ms("lat", 2.0);
  registry.observe_ms("lat", 4.5);
  const auto h = registry.snapshot().histograms.at("lat");
  EXPECT_EQ(h.count, 3u);
  EXPECT_EQ(h.sum_ticks, 7500u);  // integer microsecond ticks
  EXPECT_DOUBLE_EQ(h.sum_ms(), 7.5);
  EXPECT_DOUBLE_EQ(h.mean_ms(), 2.5);
  EXPECT_DOUBLE_EQ(h.min, 1.0);
  EXPECT_DOUBLE_EQ(h.max, 4.5);
  EXPECT_EQ(h.buckets.size(), h.bounds.size() + 1);
}

TEST(Histograms, DeclaredBoundsWinOverDefaults) {
  obs::Registry registry;
  registry.declare_histogram("custom", {10.0, 20.0});
  registry.observe_ms("custom", 5.0);
  registry.observe_ms("custom", 15.0);
  registry.observe_ms("custom", 99.0);
  const auto h = registry.snapshot().histograms.at("custom");
  ASSERT_EQ(h.bounds.size(), 2u);
  ASSERT_EQ(h.buckets.size(), 3u);
  EXPECT_EQ(h.buckets[0], 1u);
  EXPECT_EQ(h.buckets[1], 1u);
  EXPECT_EQ(h.buckets[2], 1u);  // +inf overflow bucket
}

TEST(Histograms, SingleObservationIsEveryPercentile) {
  // With one sample, min == max pins the bucket span to the value itself,
  // so every percentile is exact.
  obs::Registry registry;
  registry.observe_ms("lat", 2.0);
  const auto h = registry.snapshot().histograms.at("lat");
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 2.0);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 2.0);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 2.0);
}

TEST(Histograms, EmptyReportsZero) {
  obs::HistogramSnapshot h;
  h.bounds = obs::default_latency_bounds_ms();
  h.buckets.assign(h.bounds.size() + 1, 0);
  EXPECT_EQ(h.percentile(0.0), 0.0);
  EXPECT_EQ(h.percentile(50.0), 0.0);
  EXPECT_EQ(h.percentile(100.0), 0.0);
  EXPECT_EQ(h.mean_ms(), 0.0);
}

TEST(Histograms, ExtremesClampToObservedMinMax) {
  // The lowest and highest occupied buckets, (2.5, 5] and (25, 50], are
  // clamped to the observed min and max, so p0 and p100 report them
  // exactly rather than the bucket edges 2.5 and 50, and no estimate
  // leaves [min, max].
  obs::Registry registry;
  for (double v : {3.7, 4.1, 10.0, 30.0, 41.9}) registry.observe_ms("lat", v);
  const auto h = registry.snapshot().histograms.at("lat");
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 3.7);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 41.9);
  EXPECT_DOUBLE_EQ(h.percentile(-5.0), 3.7);
  EXPECT_DOUBLE_EQ(h.percentile(250.0), 41.9);
  for (double p = 0.0; p <= 100.0; p += 5.0) {
    EXPECT_GE(h.percentile(p), 3.7) << "p" << p;
    EXPECT_LE(h.percentile(p), 41.9) << "p" << p;
  }
}

// The agreement contract with measure::percentile: on a golden sample the
// histogram estimate must land within one bucket width of the exact
// sorted-sample percentile (the histogram only knows bucket membership).
TEST(Histograms, PercentileAgreesWithMeasurePercentileWithinABucket) {
  obs::Registry registry;
  auto rng = drongo::net::Rng::derive(7, 1, 2);
  std::vector<double> samples;
  for (int i = 0; i < 500; ++i) {
    // Latency-shaped values spanning several default buckets.
    samples.push_back(0.1 + 40.0 * rng.uniform01() * rng.uniform01());
    registry.observe_ms("lat", samples.back());
  }
  const auto h = registry.snapshot().histograms.at("lat");
  const auto& bounds = h.bounds;
  for (double p : {10.0, 25.0, 50.0, 75.0, 90.0, 99.0}) {
    const double exact = drongo::measure::percentile(samples, p);
    const double estimate = h.percentile(p);
    // Tolerance: the span of the exact value's bucket plus one neighbour on
    // each side (the estimate interpolates within the rank's bucket, which
    // can sit one bucket over when the rank straddles a boundary).
    std::size_t b = 0;
    while (b < bounds.size() && exact > bounds[b]) ++b;
    const double lo = b < 2 ? 0.0 : bounds[b - 2];
    const double hi = b + 1 < bounds.size() ? bounds[b + 1] : h.max;
    EXPECT_LE(std::abs(estimate - exact), (hi - lo) + 1e-9)
        << "p" << p << ": exact " << exact << " vs estimate " << estimate;
  }
}

TEST(Histograms, ThreadedObservationsMergeLikeSerial) {
  // The same 400 deterministic observations, recorded serially and split
  // across 4 threads, must produce identical snapshots.
  std::vector<double> values;
  auto rng = drongo::net::Rng::derive(11, 0, 0);
  for (int i = 0; i < 400; ++i) values.push_back(50.0 * rng.uniform01());

  obs::Registry serial;
  for (double v : values) serial.observe_ms("lat", v);

  obs::Registry parallel;
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&parallel, &values, w] {
      for (std::size_t i = static_cast<std::size_t>(w); i < values.size(); i += 4) {
        parallel.observe_ms("lat", values[i]);
      }
    });
  }
  for (auto& t : workers) t.join();

  const auto a = serial.snapshot().histograms.at("lat");
  const auto b = parallel.snapshot().histograms.at("lat");
  EXPECT_EQ(a.buckets, b.buckets);
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.sum_ticks, b.sum_ticks);
  EXPECT_DOUBLE_EQ(a.min, b.min);
  EXPECT_DOUBLE_EQ(a.max, b.max);
}

// The streaming-quantile contract: a histogram fed one observation at a
// time, from any number of threads, answers percentiles within one bucket
// of the exact sorted-sample value. With geometric bounds at 48 per decade
// (about 5% relative resolution) that bound is tight enough to set a
// latency threshold from.
std::vector<double> log_bounds(double lo_ms, double hi_ms, int per_decade) {
  std::vector<double> bounds;
  const double ratio = std::pow(10.0, 1.0 / per_decade);
  for (double bound = lo_ms; bound < hi_ms; bound *= ratio) bounds.push_back(bound);
  bounds.push_back(hi_ms);
  return bounds;
}

TEST(StreamingQuantile, SingleValueIsEveryQuantile) {
  obs::Registry registry;
  registry.declare_histogram("lat", log_bounds(0.05, 60000.0, 48));
  registry.observe_ms("lat", 12.5);
  const auto h = registry.snapshot().histograms.at("lat");
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 12.5);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 12.5);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 12.5);
}

TEST(StreamingQuantile, AgreesWithExactPercentileOnFixedSamples) {
  // Agreement with measure::percentile is bounded by one bucket width
  // (~5% relative at 48 buckets/decade) plus the even-spread assumption
  // within a bucket.
  drongo::net::Rng rng(2024);
  obs::Registry registry;
  registry.declare_histogram("lat", log_bounds(0.05, 60000.0, 48));
  std::vector<double> samples;
  for (int i = 0; i < 5000; ++i) {
    double v = rng.uniform_real(0.5, 200.0);
    if (rng.chance(0.05)) v += 400.0;  // a tail, like slow exchanges
    samples.push_back(v);
    registry.observe_ms("lat", v);
  }
  const auto h = registry.snapshot().histograms.at("lat");
  for (double p : {5.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0}) {
    const double exact = drongo::measure::percentile(samples, p);
    const double estimate = h.percentile(p);
    EXPECT_NEAR(estimate, exact, 0.08 * exact + 0.5)
        << "p" << p << ": estimate " << estimate << " vs exact " << exact;
  }
}

TEST(StreamingQuantile, ThreadedObservationMatchesSerialGolden) {
  // After the same multiset of observations every quantile must be
  // identical whether one thread observed or eight raced.
  const int kPerThread = 4000;
  const int kThreads = 8;
  const auto bounds = log_bounds(0.05, 60000.0, 48);

  obs::Registry serial;
  serial.declare_histogram("lat", bounds);
  for (int t = 0; t < kThreads; ++t) {
    auto rng = drongo::net::Rng::derive(99, static_cast<std::uint64_t>(t));
    for (int i = 0; i < kPerThread; ++i) serial.observe_ms("lat", rng.uniform_real(0.1, 500.0));
  }

  obs::Registry threaded;
  threaded.declare_histogram("lat", bounds);
  {
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&threaded, t] {
        auto rng = drongo::net::Rng::derive(99, static_cast<std::uint64_t>(t));
        for (int i = 0; i < kPerThread; ++i) {
          threaded.observe_ms("lat", rng.uniform_real(0.1, 500.0));
        }
      });
    }
    for (auto& w : workers) w.join();
  }

  const auto a = serial.snapshot().histograms.at("lat");
  const auto b = threaded.snapshot().histograms.at("lat");
  ASSERT_EQ(b.count, a.count);
  EXPECT_DOUBLE_EQ(b.min, a.min);
  EXPECT_DOUBLE_EQ(b.max, a.max);
  for (double p = 0.0; p <= 100.0; p += 2.5) {
    EXPECT_DOUBLE_EQ(b.percentile(p), a.percentile(p)) << "at p" << p;
  }
}

}  // namespace
