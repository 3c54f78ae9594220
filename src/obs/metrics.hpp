// Deterministic telemetry: named counters, gauges, and fixed-bucket latency
// histograms, collected in per-thread sinks and merged in canonical order.
//
// The design target is the same property the campaign engine guarantees for
// trial records: a metrics snapshot taken after a campaign is byte-identical
// whether the campaign ran serially or on any number of workers. That falls
// out of three rules:
//
//   1. every recorded value is deterministic (simulated milliseconds,
//      event counts — never wall-clock durations; those live in spans and
//      are excluded from deterministic exports),
//   2. every merge is commutative and associative (integer sums, min/max;
//      histogram sums accumulate in integer microsecond ticks so floating
//      addition order can never change a bit),
//   3. the merged snapshot is emitted in sorted name order, never in sink
//      or thread order.
//
// Hot-path writes go to a lock-free-for-the-owner thread-local sink; the
// registry mutex is only taken to register a sink, declare a histogram, or
// snapshot. Snapshots require quiescence (join your workers first), exactly
// like reading the records vector of a ParallelCampaignRunner.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "net/clock.hpp"

namespace drongo::obs {

class SpanClock;

/// Default histogram buckets: latency-shaped upper bounds in milliseconds,
/// 50 us to 5 s, roughly 1-2.5-5 per decade. An implicit +inf bucket always
/// follows the last bound.
const std::vector<double>& default_latency_bounds_ms();

/// One merged histogram: counts per bucket plus order-independent scalars.
struct HistogramSnapshot {
  /// Upper bounds (ascending); buckets has bounds.size() + 1 entries, the
  /// last being the +inf overflow bucket.
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;
  std::uint64_t count = 0;
  /// Sum in integer microsecond ticks (value_ms * 1000, rounded): integer
  /// addition commutes, so parallel merges cannot perturb low bits.
  std::uint64_t sum_ticks = 0;
  double min = 0.0;
  double max = 0.0;

  [[nodiscard]] double sum_ms() const { return static_cast<double>(sum_ticks) / 1000.0; }
  [[nodiscard]] double mean_ms() const {
    return count == 0 ? 0.0 : sum_ms() / static_cast<double>(count);
  }

  /// Estimated percentile, p in [0, 100], interpolated within the bucket
  /// holding the rank and clamped to the observed min/max; 0 when empty.
  /// Agreement with the exact sorted-sample percentile is bounded by one
  /// bucket width.
  [[nodiscard]] double percentile(double p) const;
};

/// One span aggregate: how often it ran, total ticks (clock-dependent; see
/// span.hpp), and the deepest nesting it was observed at.
struct SpanSnapshot {
  std::uint64_t count = 0;
  std::uint64_t total_ticks = 0;
  std::uint64_t max_depth = 0;
};

/// A merged, canonically ordered view of everything a Registry collected.
/// std::map keys give the sorted, stable order the exports rely on.
struct Snapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
  std::map<std::string, SpanSnapshot> spans;
};

/// The collection hub. Layers hold a `Registry*` that may be null —
/// telemetry is always optional and a null registry costs one branch.
class Registry {
 public:
  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Adds `delta` to the named counter (creating it at zero).
  void add(std::string_view name, std::uint64_t delta = 1);

  /// Sets the named gauge for the calling thread. Threads' values merge by
  /// maximum — the only order-independent choice for a "last write wins"
  /// semantic that must not depend on scheduling.
  void gauge(std::string_view name, std::int64_t value);

  /// Records one observation (milliseconds) into the named histogram,
  /// using its declared bounds or default_latency_bounds_ms().
  void observe_ms(std::string_view name, double value_ms);

  /// Declares custom bucket bounds for a histogram. Must happen before any
  /// thread observes into it; ascending, non-empty. First declaration wins.
  void declare_histogram(std::string_view name, std::vector<double> bounds_ms);

  /// Overrides the span clock (borrowed; nullptr restores the wall clock).
  /// Tests install a ManualSpanClock to make span timing deterministic.
  void set_span_clock(SpanClock* clock);

  /// Merges every per-thread sink into one canonical snapshot. Requires
  /// quiescence: no concurrent writers (join campaign workers first).
  [[nodiscard]] Snapshot snapshot() const;

  /// Clears all collected data (sinks stay registered). Same quiescence
  /// requirement as snapshot().
  void reset();

 private:
  friend class Span;

  struct HistogramData {
    const std::vector<double>* bounds = nullptr;  // owned by the registry
    std::vector<std::uint64_t> buckets;
    std::uint64_t count = 0;
    std::uint64_t sum_ticks = 0;
    double min = 0.0;
    double max = 0.0;
  };
  struct SpanData {
    std::uint64_t count = 0;
    std::uint64_t total_ticks = 0;
    std::uint64_t max_depth = 0;
  };
  /// All the data one thread writes. Only its owner writes it; the registry
  /// reads it under quiescence. Ordered maps keep per-sink iteration (and
  /// thus merge input order) deterministic.
  struct ThreadSink {
    std::map<std::string, std::uint64_t, std::less<>> counters;
    std::map<std::string, std::int64_t, std::less<>> gauges;
    std::map<std::string, HistogramData, std::less<>> histograms;
    std::map<std::string, SpanData, std::less<>> spans;
    std::uint64_t open_spans = 0;  ///< current nesting depth on this thread
  };

  /// The calling thread's sink, registering one on first touch.
  ThreadSink& local();
  /// Bounds for `name`: declared ones or the default set.
  const std::vector<double>& bounds_of(std::string_view name) const;

  // Span plumbing (used by obs::Span).
  std::uint64_t span_now() const;
  std::uint64_t span_enter();
  void span_exit(const std::string& name, std::uint64_t start_ticks,
                 std::uint64_t depth);

  /// Process-unique id: thread-local caches key on it, so a stale cache
  /// entry for a destroyed registry can never alias a new one.
  const std::uint64_t id_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadSink>> sinks_;
  std::map<std::string, std::vector<double>, std::less<>> declared_bounds_;
  SpanClock* span_clock_ = nullptr;  // borrowed; nullptr = wall_
  net::Stopwatch wall_;
};

}  // namespace drongo::obs
