#pragma once
// Streaming signal filters used by the sensing pipeline.
//
// The vibration-level estimator removes the gravity component from raw
// accelerometer magnitudes with a single-pole high-pass filter and then takes
// a windowed RMS; the bandwidth path uses an EMA smoother for diagnostics.

#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace eacs {

/// Exponential moving average, y[n] = (1-a)*y[n-1] + a*x[n].
class EmaFilter {
 public:
  /// `alpha` in (0, 1]; larger tracks the input faster.
  explicit EmaFilter(double alpha);

  double update(double x) noexcept;
  double value() const noexcept { return value_; }
  bool primed() const noexcept { return primed_; }
  void reset() noexcept;

 private:
  double alpha_;
  double value_ = 0.0;
  bool primed_ = false;
};

/// Single-pole high-pass filter (DC blocker):
///   y[n] = r * (y[n-1] + x[n] - x[n-1]).
/// Used to strip gravity (a quasi-DC 9.81 m/s^2 bias) from accelerometer
/// magnitude streams before computing vibration energy.
class HighPassFilter {
 public:
  /// `cutoff_hz` must be > 0 and < sample_rate_hz / 2.
  HighPassFilter(double cutoff_hz, double sample_rate_hz) {
    if (cutoff_hz <= 0.0 || sample_rate_hz <= 0.0 ||
        cutoff_hz >= sample_rate_hz / 2.0) {
      throw std::invalid_argument("HighPassFilter: invalid cutoff/sample rate");
    }
    constexpr double kPi = 3.14159265358979323846;
    const double rc = 1.0 / (2.0 * kPi * cutoff_hz);
    const double dt = 1.0 / sample_rate_hz;
    r_ = rc / (rc + dt);
  }

  double update(double x) noexcept {
    if (!primed_) {
      // Start with zero output so a constant input (gravity) is rejected
      // from the first sample instead of producing a large transient.
      prev_input_ = x;
      prev_output_ = 0.0;
      primed_ = true;
      return 0.0;
    }
    const double y = r_ * (prev_output_ + x - prev_input_);
    prev_input_ = x;
    prev_output_ = y;
    return y;
  }
  void reset() noexcept;

 private:
  // update() writes this pair as one 16-byte store. Aligned, it never splits
  // a cache line or page; a split store cannot forward to the next sample's
  // loads and slowed the accelerometer loop several-fold on some stacks.
  alignas(16) double prev_input_ = 0.0;
  double prev_output_ = 0.0;
  double r_;
  bool primed_ = false;
};

/// Fixed-size moving RMS over the last `window` samples.
class MovingRms {
 public:
  explicit MovingRms(std::size_t window) : window_(window), storage_(window, 0.0) {
    if (window == 0) throw std::invalid_argument("MovingRms: window must be > 0");
  }

  /// Adds one sample: update() without computing the RMS.
  void push(double x) noexcept {
    const double squared = x * x;
    if (count_ < window_) {
      storage_[count_] = squared;
      sum_squares_ += squared;
      ++count_;
    } else {
      sum_squares_ += squared - storage_[head_];
      storage_[head_] = squared;
      if (++head_ == window_) head_ = 0;
    }
  }
  double update(double x) noexcept {
    push(x);
    return value();
  }
  /// Mean of the windowed squares; value() is exactly its square root.
  double mean_square() const noexcept {
    if (count_ == 0) return 0.0;
    // Guard against tiny negative drift from floating-point cancellation.
    return sum_squares_ > 0.0 ? sum_squares_ / static_cast<double>(count_) : 0.0;
  }
  double value() const noexcept { return std::sqrt(mean_square()); }
  std::size_t count() const noexcept { return count_; }
  void reset() noexcept;

 private:
  std::size_t window_;
  std::size_t count_ = 0;
  std::size_t head_ = 0;
  double sum_squares_ = 0.0;
  std::vector<double> storage_;  // ring buffer of squared samples
};

}  // namespace eacs
