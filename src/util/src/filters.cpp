#include "eacs/util/filters.h"

#include <cmath>
#include <stdexcept>

namespace eacs {

EmaFilter::EmaFilter(double alpha) : alpha_(alpha) {
  if (alpha <= 0.0 || alpha > 1.0) {
    throw std::invalid_argument("EmaFilter: alpha must be in (0, 1]");
  }
}

double EmaFilter::update(double x) noexcept {
  if (!primed_) {
    value_ = x;
    primed_ = true;
  } else {
    value_ += alpha_ * (x - value_);
  }
  return value_;
}

void EmaFilter::reset() noexcept {
  value_ = 0.0;
  primed_ = false;
}

void HighPassFilter::reset() noexcept {
  prev_input_ = 0.0;
  prev_output_ = 0.0;
  primed_ = false;
}

void MovingRms::reset() noexcept {
  count_ = 0;
  head_ = 0;
  sum_squares_ = 0.0;
  for (auto& s : storage_) s = 0.0;
}

}  // namespace eacs
