#pragma once
// Vibration-level estimation (reconstruction of the paper's Eq. 5).
//
// The paper records accelerometer data during video watching and computes a
// scalar "vibration level" v (m/s^2, observed range ~0..7) over the trailing
// time window 0.2*W where W is the 30 s player buffer threshold, i.e. a 6 s
// window. We implement v as the RMS of the gravity-removed acceleration
// magnitude over that window:
//
//   v = rms_{window}( highpass( |a(t)| ) )
//
// A quiet room yields v close to 0 (sensor noise only); a moving vehicle
// yields v of several m/s^2, matching Table V's 2.46..6.83 averages.

#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "eacs/sensors/accel.h"
#include "eacs/util/filters.h"

namespace eacs::sensors {

/// Configuration for the vibration estimator.
struct VibrationConfig {
  double window_s = 6.0;        ///< trailing window (paper: 0.2 * 30 s)
  double sample_rate_hz = 50.0; ///< accelerometer rate
  double highpass_cutoff_hz = 0.5;  ///< gravity-removal cutoff

  /// Degraded-stream behaviour for `level_at()`: once the stream has been
  /// quiet for longer than `quiet_after_s`, the estimate decays exponentially
  /// (time constant `prior_tau_s`) toward `prior_vibration`, a conservative
  /// vibrating-commute prior (Table V reports 2.46..6.83 m/s^2 on buses).
  /// Planning on "probably vibrating" costs a little energy headroom when the
  /// user is actually still; planning on a frozen quiet-room estimate costs
  /// rebuffering when they are not.
  double quiet_after_s = 2.0;
  double prior_vibration = 4.0;
  double prior_tau_s = 10.0;

  std::size_t window_samples() const noexcept {
    const double n = window_s * sample_rate_hz;
    return n < 1.0 ? 1 : static_cast<std::size_t>(n);
  }

  bool operator==(const VibrationConfig&) const = default;
};

/// Streaming vibration-level estimator.
///
/// Push raw samples as they arrive; `level()` returns the current vibration
/// level over the trailing window. O(1) per sample.
class VibrationEstimator {
 public:
  explicit VibrationEstimator(VibrationConfig config = {});

  /// Consumes one raw sample and returns the updated level. Samples with any
  /// non-finite axis are rejected without touching the filter state (a single
  /// NaN would otherwise poison the trailing RMS window for a full
  /// window_samples() updates); rejected samples are counted but return the
  /// unchanged level.
  double update(const AccelSample& sample);

  /// Current vibration level (m/s^2). 0 before any sample.
  double level() const noexcept;

  /// Level with staleness decay: the raw `level()` while the stream is fresh
  /// (age within quiet_after_s of the last *valid* sample), decaying toward
  /// config().prior_vibration as the stream stays quiet. Returns the prior
  /// outright if no valid sample was ever consumed. Always finite.
  double level_at(double now_s) const noexcept;

  /// Number of samples consumed (valid or not).
  std::size_t samples_seen() const noexcept { return samples_seen_; }

  /// Number of samples rejected for non-finite components.
  std::size_t rejected_samples() const noexcept { return rejected_samples_; }

  const VibrationConfig& config() const noexcept { return config_; }

  void reset();

 private:
  VibrationConfig config_;
  eacs::HighPassFilter highpass_;
  eacs::MovingRms rms_;
  std::size_t samples_seen_ = 0;
  std::size_t rejected_samples_ = 0;
  double last_valid_t_s_ = 0.0;
  bool have_valid_ = false;
};

/// The true vibration series of one accelerometer stream, computed in one
/// pass and then only read.
///
/// `level_after(n)` is the level a fresh `VibrationEstimator(config)` holds
/// after update() on the first n samples: 0 for n == 0, and a rejected
/// (non-finite) sample repeats the previous level. Replays read the series
/// through `advance()`, a cursor over the sample timestamps, instead of
/// re-running the estimator, so every replay of a session and its optimal
/// plan share one estimator pass.
///
/// The samples are unowned: the track remembers the span it was built from
/// (see built_from()) and must not outlive it.
class VibrationTrack {
 public:
  /// Throws std::invalid_argument on a config VibrationEstimator rejects.
  explicit VibrationTrack(std::span<const AccelSample> accel = {},
                          VibrationConfig config = {});

  /// Number of samples the track covers.
  std::size_t size() const noexcept { return accel_.size(); }

  /// Level after the first `n` samples, n in [0, size()].
  double level_after(std::size_t n) const noexcept {
    return std::sqrt(mean_squares_[n]);
  }

  const VibrationConfig& config() const noexcept { return config_; }

  /// True if the track was built from exactly this span (same storage and
  /// length), not merely from equal samples.
  bool built_from(std::span<const AccelSample> accel) const noexcept {
    return accel.data() == accel_.data() && accel.size() == accel_.size();
  }

  /// Cursor step: the sample count at which the streaming walk
  ///
  ///   while (n < size() && sample[n].t_s <= t_s) ++n;
  ///
  /// stops when started from `n = cursor`, NaN and decreasing timestamps
  /// included. Inside the leading run of sorted, NaN-free timestamps it
  /// gallops; after that run it walks sample by sample.
  std::size_t advance(std::size_t cursor, double t_s) const noexcept;

 private:
  std::span<const AccelSample> accel_;
  VibrationConfig config_;
  /// The RMS window's mean square after each prefix (size() + 1 entries);
  /// a level is its square root, taken only when read.
  std::vector<double> mean_squares_;
  std::size_t sorted_prefix_ = 0; ///< leading sorted, NaN-free timestamps
};

/// Batch helper: vibration level over the trailing window of a whole trace.
double vibration_level(std::span<const AccelSample> trace, VibrationConfig config = {});

/// Batch helper: mean vibration level over the full trace, computed by
/// streaming the estimator across it and averaging the per-sample levels once
/// the window is primed. This is the statistic reported in Table V's
/// "Avg. vibration" column.
double mean_vibration_level(std::span<const AccelSample> trace,
                            VibrationConfig config = {});

}  // namespace eacs::sensors
