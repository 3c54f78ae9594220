// Training windows: bounded per-subnet measurement history (§4.1).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace drongo::core {

/// A sliding window of latency ratios observed for one (domain, subnet)
/// pair. Drongo keeps storage tiny: the paper finds a window of 5 captures
/// nearly all the predictive power (Fig. 5b), so that is the default.
///
/// The ratios live in the object for capacities up to kInlineCapacity
/// (every window size the paper and the ablations use); a larger window
/// takes one heap block at construction. Either way add() never allocates.
class TrainingWindow {
 public:
  static constexpr std::size_t kInlineCapacity = 8;

  explicit TrainingWindow(std::size_t capacity = 5);

  /// Records the latency ratio from one trial.
  void add(double ratio);

  /// Records that a trial that should have fed this window produced no
  /// ratio (hop resolution failed, measurements missing). Misses never
  /// enter the ratio history — a degraded trial must not dilute or fake
  /// valley evidence — they are tracked so operators can see how much of a
  /// window's training signal a lossy network ate.
  void add_miss() { ++misses_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Drongo only acts on full windows ("sufficient data", §4).
  [[nodiscard]] bool full() const { return size_ >= capacity_; }

  /// Valley frequency at threshold vt: fraction of window trials whose
  /// ratio is a valley (ratio < vt). Zero for an empty window.
  [[nodiscard]] double valley_frequency(double valley_threshold) const;

  /// True when at least one window trial is a valley at vt — the Fig. 5b
  /// stability precondition.
  [[nodiscard]] bool any_valley(double valley_threshold) const;

  /// The window's ratios, oldest first.
  [[nodiscard]] std::span<const double> ratios() const { return {data(), size_}; }

 private:
  [[nodiscard]] const double* data() const {
    return overflow_.empty() ? inline_.data() : overflow_.data();
  }
  [[nodiscard]] double* data() { return overflow_.empty() ? inline_.data() : overflow_.data(); }

  std::size_t capacity_;
  std::size_t size_ = 0;
  std::array<double, kInlineCapacity> inline_{};
  std::vector<double> overflow_;  // sized to capacity_ when it exceeds kInlineCapacity
  std::uint64_t misses_ = 0;
};

}  // namespace drongo::core
