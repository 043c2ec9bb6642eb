#pragma once
// Streaming signal filters used by the sensing pipeline.
//
// The vibration-level estimator removes the gravity component from raw
// accelerometer magnitudes with a single-pole high-pass filter and then takes
// a windowed RMS; the bandwidth path uses an EMA smoother for diagnostics.

#include <cstddef>
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
  HighPassFilter(double cutoff_hz, double sample_rate_hz);

  double update(double x) noexcept;
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
  explicit MovingRms(std::size_t window);

  double update(double x);
  double value() const noexcept;
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
