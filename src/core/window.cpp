#include "core/window.hpp"

#include <algorithm>

#include "net/error.hpp"

namespace drongo::core {

TrainingWindow::TrainingWindow(std::size_t capacity) : capacity_(capacity) {
  if (capacity == 0) throw net::InvalidArgument("window capacity must be positive");
  if (capacity > kInlineCapacity) overflow_.resize(capacity);
}

void TrainingWindow::add(double ratio) {
  double* ratios = data();
  if (size_ == capacity_) {
    // Slide: drop the oldest. Windows are a handful of ratios, so shifting
    // them keeps the history contiguous and oldest-first for ratios().
    std::copy(ratios + 1, ratios + size_, ratios);
    --size_;
  }
  ratios[size_++] = ratio;
}

double TrainingWindow::valley_frequency(double valley_threshold) const {
  if (size_ == 0) return 0.0;
  std::size_t valleys = 0;
  for (double r : ratios()) {
    if (r < valley_threshold) ++valleys;
  }
  return static_cast<double>(valleys) / static_cast<double>(size_);
}

bool TrainingWindow::any_valley(double valley_threshold) const {
  for (double r : ratios()) {
    if (r < valley_threshold) return true;
  }
  return false;
}

}  // namespace drongo::core
