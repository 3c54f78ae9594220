// Streaming quantile estimation for rolling latency thresholds.
//
// Hedged exchanges (dns::HedgedTransport) need "the p95 of everything this
// channel has seen so far" answered in O(1) per observation, from many
// threads at once, without ever making the answer depend on which thread
// observed first. A sorted-sample percentile cannot do that; this fixed
// log-spaced bucket sketch can: observations only increment relaxed atomic
// counters (plus CAS min/max), every merge of per-thread effects is a
// commutative integer sum, so the final state after N observations is the
// same for any interleaving — the same property obs::Registry histograms
// guarantee, available below the obs layer where dns transports live.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

namespace drongo::net {

namespace detail {
constexpr std::uint64_t bucket_count(std::uint64_t n) { return n; }
inline std::uint64_t bucket_count(const std::atomic<std::uint64_t>& n) {
  return n.load(std::memory_order_relaxed);
}
}  // namespace detail

/// The percentile, p in [0, 100], of `count` values histogrammed into
/// `buckets` (plain or relaxed-atomic counts) with ascending upper `bounds`;
/// the one bucket past the last bound is the +inf overflow. Same rank
/// convention as measure::percentile: linear interpolation at rank
/// p/100 * (n-1), values assumed evenly spread within their bucket, and the
/// extreme buckets clamped to the observed `min`/`max` so an outlier cannot
/// drag the estimate past real data. Returns 0 when `count` is 0. The one
/// routine behind StreamingQuantile and obs::HistogramSnapshot.
template <typename Buckets>
[[nodiscard]] double bucket_percentile(double p, std::uint64_t count,
                                       const Buckets& buckets,
                                       const std::vector<double>& bounds, double min,
                                       double max) {
  if (count == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(count - 1);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const std::uint64_t in_bucket = detail::bucket_count(buckets[i]);
    if (in_bucket == 0) continue;
    const double first_rank = static_cast<double>(cumulative);
    const double last_rank = static_cast<double>(cumulative + in_bucket - 1);
    if (rank <= last_rank || cumulative + in_bucket == count) {
      double lo = i == 0 ? min : bounds[i - 1];
      double hi = i < bounds.size() ? bounds[i] : max;
      lo = std::max(lo, min);
      hi = std::min(hi, max);
      if (hi <= lo || in_bucket == 1) return std::clamp((lo + hi) / 2.0, min, max);
      const double frac =
          std::clamp((rank - first_rank) / static_cast<double>(in_bucket - 1), 0.0, 1.0);
      return lo + (hi - lo) * frac;
    }
    cumulative += in_bucket;
  }
  return max;
}

/// A fixed-bucket streaming quantile sketch over positive millisecond
/// values. Buckets are geometrically spaced between `min_value_ms` and
/// `max_value_ms` (values outside are clamped into the edge buckets), so
/// relative resolution is constant across the range.
///
/// quantile() is bucket_percentile() over the sketch, except that p0/p100
/// report the exactly tracked min/max — agreement with the exact
/// sorted-sample percentile is bounded by one bucket width.
///
/// Thread-safety: observe() may be called concurrently; it touches only
/// relaxed atomics, so the post-quiescence state is independent of
/// interleaving. quantile()/count() require quiescence for an exact answer
/// (mid-flight reads are a consistent-enough snapshot for a threshold).
class StreamingQuantile {
 public:
  /// `buckets_per_decade` controls resolution (default: ~5% relative error).
  explicit StreamingQuantile(double min_value_ms = 0.05, double max_value_ms = 60000.0,
                             int buckets_per_decade = 48);

  StreamingQuantile(const StreamingQuantile&) = delete;
  StreamingQuantile& operator=(const StreamingQuantile&) = delete;

  /// Records one observation. Negative values clamp to zero.
  void observe(double value_ms);

  /// Estimated percentile, p in [0, 100]; 0 when nothing was observed.
  [[nodiscard]] double quantile(double p) const;

  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  /// Smallest / largest observed value (0 when empty).
  [[nodiscard]] double observed_min() const;
  [[nodiscard]] double observed_max() const;

  /// Bucket upper bounds (ascending; one fewer than the bucket count — the
  /// final bucket is the +inf overflow). Exposed for tests.
  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }

 private:
  /// Index of the bucket holding `value_ms`.
  [[nodiscard]] std::size_t bucket_of(double value_ms) const;

  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;
  std::atomic<std::uint64_t> count_{0};
  /// Observed extremes as CAS-updated bit patterns of doubles: min/max are
  /// commutative, so concurrent updates land on the same final value.
  std::atomic<std::uint64_t> min_bits_;
  std::atomic<std::uint64_t> max_bits_;
};

}  // namespace drongo::net
