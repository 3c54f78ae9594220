#include "net/quantile.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "net/error.hpp"

namespace drongo::net {

namespace {

std::uint64_t bits_of(double value) { return std::bit_cast<std::uint64_t>(value); }
double double_of(std::uint64_t bits) { return std::bit_cast<double>(bits); }

/// Folds `value` into an atomic extreme with a relaxed CAS loop. `Better`
/// decides whether `value` should replace the current extreme; min and max
/// both commute, so the final value is interleaving-independent.
template <typename Better>
void fold_extreme(std::atomic<std::uint64_t>& slot, double value, Better better) {
  std::uint64_t current = slot.load(std::memory_order_relaxed);
  while (better(value, double_of(current))) {
    if (slot.compare_exchange_weak(current, bits_of(value), std::memory_order_relaxed,
                                   std::memory_order_relaxed)) {
      return;
    }
  }
}

}  // namespace

StreamingQuantile::StreamingQuantile(double min_value_ms, double max_value_ms,
                                     int buckets_per_decade)
    : min_bits_(bits_of(std::numeric_limits<double>::infinity())),
      max_bits_(bits_of(-std::numeric_limits<double>::infinity())) {
  if (!(min_value_ms > 0.0) || !(max_value_ms > min_value_ms)) {
    throw InvalidArgument("StreamingQuantile needs 0 < min_value_ms < max_value_ms");
  }
  if (buckets_per_decade < 1) {
    throw InvalidArgument("StreamingQuantile needs buckets_per_decade >= 1");
  }
  const double ratio = std::pow(10.0, 1.0 / buckets_per_decade);
  for (double bound = min_value_ms; bound < max_value_ms; bound *= ratio) {
    bounds_.push_back(bound);
  }
  bounds_.push_back(max_value_ms);
  buckets_ = std::vector<std::atomic<std::uint64_t>>(bounds_.size() + 1);
}

std::size_t StreamingQuantile::bucket_of(double value_ms) const {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value_ms);
  return static_cast<std::size_t>(it - bounds_.begin());
}

void StreamingQuantile::observe(double value_ms) {
  if (value_ms < 0.0 || std::isnan(value_ms)) value_ms = 0.0;
  buckets_[bucket_of(value_ms)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  fold_extreme(min_bits_, value_ms, [](double a, double b) { return a < b; });
  fold_extreme(max_bits_, value_ms, [](double a, double b) { return a > b; });
}

double StreamingQuantile::observed_min() const {
  const double v = double_of(min_bits_.load(std::memory_order_relaxed));
  return std::isinf(v) ? 0.0 : v;
}

double StreamingQuantile::observed_max() const {
  const double v = double_of(max_bits_.load(std::memory_order_relaxed));
  return std::isinf(v) ? 0.0 : v;
}

double StreamingQuantile::quantile(double p) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  // The extreme ranks are known exactly — the atomics track true min/max —
  // so p0/p100 report them rather than a bucket interpolation.
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(n - 1);
  if (rank <= 0.0) return observed_min();
  if (rank >= static_cast<double>(n - 1)) return observed_max();
  return bucket_percentile(p, n, buckets_, bounds_, observed_min(), observed_max());
}

}  // namespace drongo::net
