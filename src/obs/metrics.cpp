#include "obs/metrics.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "net/error.hpp"
#include "obs/span.hpp"

namespace drongo::obs {

namespace {

/// Monotonic registry id source; ids are never reused, so a thread-local
/// cache entry keyed on (pointer, id) cannot alias a successor registry
/// allocated at the same address.
std::atomic<std::uint64_t> g_next_registry_id{1};

std::uint64_t ticks_of_ms(double value_ms) {
  if (!(value_ms > 0.0)) return 0;  // NaN and negatives contribute nothing
  return static_cast<std::uint64_t>(std::llround(value_ms * 1000.0));
}

/// The percentile, p in [0, 100], of `count` values histogrammed into
/// `buckets` with ascending upper `bounds`; the one bucket past the last
/// bound is the +inf overflow. Same rank convention as measure::percentile:
/// linear interpolation at rank p/100 * (n-1), values assumed evenly spread
/// within their bucket, and the extreme buckets clamped to the observed
/// `min`/`max` so an outlier cannot drag the estimate past real data.
/// Returns 0 when `count` is 0.
double bucket_percentile(double p, std::uint64_t count,
                         const std::vector<std::uint64_t>& buckets,
                         const std::vector<double>& bounds, double min, double max) {
  if (count == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(count - 1);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const std::uint64_t in_bucket = buckets[i];
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

}  // namespace

const std::vector<double>& default_latency_bounds_ms() {
  static const std::vector<double> kBounds = {
      0.05, 0.1,  0.25, 0.5,  1.0,   2.5,   5.0,    10.0,
      25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0};
  return kBounds;
}

double HistogramSnapshot::percentile(double p) const {
  return bucket_percentile(p, count, buckets, bounds, min, max);
}

Registry::Registry() : id_(g_next_registry_id.fetch_add(1, std::memory_order_relaxed)) {}

Registry::~Registry() = default;

Registry::ThreadSink& Registry::local() {
  // One cache slot per thread: re-registering on registry switches is
  // harmless (sums merge), while the id check makes stale entries inert.
  struct Cache {
    const Registry* registry = nullptr;
    std::uint64_t id = 0;
    ThreadSink* sink = nullptr;
  };
  thread_local Cache cache;
  if (cache.registry == this && cache.id == id_) return *cache.sink;
  std::lock_guard lock(mutex_);
  sinks_.push_back(std::make_unique<ThreadSink>());
  cache = {this, id_, sinks_.back().get()};
  return *cache.sink;
}

void Registry::add(std::string_view name, std::uint64_t delta) {
  auto& counters = local().counters;
  auto it = counters.find(name);
  if (it == counters.end()) {
    counters.emplace(std::string(name), delta);
  } else {
    it->second += delta;
  }
}

void Registry::gauge(std::string_view name, std::int64_t value) {
  auto& gauges = local().gauges;
  auto it = gauges.find(name);
  if (it == gauges.end()) {
    gauges.emplace(std::string(name), value);
  } else {
    it->second = value;
  }
}

const std::vector<double>& Registry::bounds_of(std::string_view name) const {
  std::lock_guard lock(mutex_);
  auto it = declared_bounds_.find(name);
  return it == declared_bounds_.end() ? default_latency_bounds_ms() : it->second;
}

void Registry::declare_histogram(std::string_view name, std::vector<double> bounds_ms) {
  if (bounds_ms.empty()) {
    throw net::InvalidArgument("histogram '" + std::string(name) + "' needs >= 1 bound");
  }
  if (!std::is_sorted(bounds_ms.begin(), bounds_ms.end())) {
    throw net::InvalidArgument("histogram '" + std::string(name) +
                               "' bounds must ascend");
  }
  std::lock_guard lock(mutex_);
  declared_bounds_.try_emplace(std::string(name), std::move(bounds_ms));
}

void Registry::observe_ms(std::string_view name, double value_ms) {
  auto& histograms = local().histograms;
  auto it = histograms.find(name);
  if (it == histograms.end()) {
    HistogramData data;
    data.bounds = &bounds_of(name);
    data.buckets.assign(data.bounds->size() + 1, 0);
    it = histograms.emplace(std::string(name), std::move(data)).first;
  }
  HistogramData& h = it->second;
  const auto bucket = static_cast<std::size_t>(
      std::upper_bound(h.bounds->begin(), h.bounds->end(), value_ms) -
      h.bounds->begin());
  ++h.buckets[bucket];
  h.sum_ticks += ticks_of_ms(value_ms);
  if (h.count == 0) {
    h.min = h.max = value_ms;
  } else {
    h.min = std::min(h.min, value_ms);
    h.max = std::max(h.max, value_ms);
  }
  ++h.count;
}

void Registry::set_span_clock(SpanClock* clock) {
  std::lock_guard lock(mutex_);
  span_clock_ = clock;
}

std::uint64_t Registry::span_now() const {
  SpanClock* clock = nullptr;
  {
    std::lock_guard lock(mutex_);
    clock = span_clock_;
  }
  if (clock != nullptr) return clock->now_ticks();
  return static_cast<std::uint64_t>(wall_.seconds() * 1e9);
}

std::uint64_t Registry::span_enter() { return local().open_spans++; }

void Registry::span_exit(const std::string& name, std::uint64_t start_ticks,
                         std::uint64_t depth) {
  ThreadSink& sink = local();
  if (sink.open_spans > 0) --sink.open_spans;
  const std::uint64_t now = span_now();
  SpanData& span = sink.spans[name];
  ++span.count;
  span.total_ticks += now >= start_ticks ? now - start_ticks : 0;
  span.max_depth = std::max(span.max_depth, depth);
}

Snapshot Registry::snapshot() const {
  std::lock_guard lock(mutex_);
  Snapshot merged;
  for (const auto& sink : sinks_) {
    for (const auto& [name, value] : sink->counters) {
      merged.counters[name] += value;
    }
    for (const auto& [name, value] : sink->gauges) {
      auto [it, fresh] = merged.gauges.try_emplace(name, value);
      if (!fresh) it->second = std::max(it->second, value);
    }
    for (const auto& [name, data] : sink->histograms) {
      auto [it, fresh] = merged.histograms.try_emplace(name);
      HistogramSnapshot& h = it->second;
      if (fresh) {
        h.bounds = *data.bounds;
        h.buckets.assign(data.buckets.size(), 0);
      }
      for (std::size_t i = 0; i < data.buckets.size(); ++i) {
        h.buckets[i] += data.buckets[i];
      }
      h.sum_ticks += data.sum_ticks;
      if (h.count == 0) {
        h.min = data.min;
        h.max = data.max;
      } else if (data.count > 0) {
        h.min = std::min(h.min, data.min);
        h.max = std::max(h.max, data.max);
      }
      h.count += data.count;
    }
    for (const auto& [name, data] : sink->spans) {
      SpanSnapshot& s = merged.spans[name];
      s.count += data.count;
      s.total_ticks += data.total_ticks;
      s.max_depth = std::max(s.max_depth, data.max_depth);
    }
  }
  return merged;
}

void Registry::reset() {
  std::lock_guard lock(mutex_);
  for (const auto& sink : sinks_) {
    sink->counters.clear();
    sink->gauges.clear();
    sink->histograms.clear();
    sink->spans.clear();
    sink->open_spans = 0;
  }
}

}  // namespace drongo::obs
