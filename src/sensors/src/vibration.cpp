#include "eacs/sensors/vibration.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "eacs/util/stats.h"

namespace eacs::sensors {
namespace {

/// The estimator's arithmetic as one tight loop over a whole trace: calls
/// `emit(mean_square)` after every sample, where std::sqrt(mean_square) is
/// exactly the level VibrationEstimator::update() would return for it. The
/// square root is left to the caller, so a track pays it only when read.
template <typename Emit>
void stream_mean_squares(std::span<const AccelSample> trace,
                         const VibrationConfig& config, Emit&& emit) {
  eacs::HighPassFilter highpass(config.highpass_cutoff_hz, config.sample_rate_hz);
  eacs::MovingRms rms(config.window_samples());
  if (config.window_s <= 0.0 || config.sample_rate_hz <= 0.0) {
    throw std::invalid_argument("vibration: non-positive window/rate");
  }
  double mean_square = 0.0;
  for (const auto& sample : trace) {
    if (std::isfinite(sample.x) && std::isfinite(sample.y) &&
        std::isfinite(sample.z)) {
      rms.push(highpass.update(sample.magnitude()));
      mean_square = rms.mean_square();
    }
    emit(mean_square);
  }
}

}  // namespace

VibrationEstimator::VibrationEstimator(VibrationConfig config)
    : config_(config),
      highpass_(config.highpass_cutoff_hz, config.sample_rate_hz),
      rms_(config.window_samples()) {
  if (config_.window_s <= 0.0 || config_.sample_rate_hz <= 0.0) {
    throw std::invalid_argument("VibrationEstimator: non-positive window/rate");
  }
}

double VibrationEstimator::update(const AccelSample& sample) {
  ++samples_seen_;
  if (!std::isfinite(sample.x) || !std::isfinite(sample.y) ||
      !std::isfinite(sample.z)) {
    ++rejected_samples_;
    return level();
  }
  if (std::isfinite(sample.t_s)) {
    last_valid_t_s_ =
        have_valid_ ? std::max(last_valid_t_s_, sample.t_s) : sample.t_s;
    have_valid_ = true;
  }
  const double ac_component = highpass_.update(sample.magnitude());
  return rms_.update(ac_component);
}

double VibrationEstimator::level() const noexcept { return rms_.value(); }

double VibrationEstimator::level_at(double now_s) const noexcept {
  if (!have_valid_) return config_.prior_vibration;
  const double age = std::max(0.0, now_s - last_valid_t_s_);
  if (age <= config_.quiet_after_s) return level();
  const double w = std::exp(-(age - config_.quiet_after_s) / config_.prior_tau_s);
  return w * level() + (1.0 - w) * config_.prior_vibration;
}

void VibrationEstimator::reset() {
  highpass_.reset();
  rms_.reset();
  samples_seen_ = 0;
  rejected_samples_ = 0;
  last_valid_t_s_ = 0.0;
  have_valid_ = false;
}

VibrationTrack::VibrationTrack(std::span<const AccelSample> accel,
                               VibrationConfig config)
    : accel_(accel), config_(config) {
  // Written through a raw cursor: a push_back in the loop would be a call
  // there, and the filter state would live in memory instead of registers.
  mean_squares_.resize(accel.size() + 1);  // [0] = 0: no sample seen
  double* out = mean_squares_.data() + 1;
  stream_mean_squares(accel, config, [&out](double mean_square) {
    *out++ = mean_square;
  });
  while (sorted_prefix_ < accel.size() && !std::isnan(accel[sorted_prefix_].t_s) &&
         (sorted_prefix_ == 0 ||
          accel[sorted_prefix_].t_s >= accel[sorted_prefix_ - 1].t_s)) {
    ++sorted_prefix_;
  }
}

std::size_t VibrationTrack::advance(std::size_t cursor, double t_s) const noexcept {
  if (cursor < sorted_prefix_ && accel_[cursor].t_s <= t_s) {
    // `t <= t_s` is monotone over the sorted prefix, so the walk's stopping
    // point there is the first timestamp above t_s: bracket it by doubling
    // steps from the cursor, then bisect.
    std::size_t lo = cursor + 1;  // every index below lo is consumed
    std::size_t hi = sorted_prefix_;
    for (std::size_t step = 1; cursor + step < sorted_prefix_; step *= 2) {
      if (!(accel_[cursor + step].t_s <= t_s)) {
        hi = cursor + step;
        break;
      }
      lo = cursor + step + 1;
    }
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (accel_[mid].t_s <= t_s) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    cursor = lo;
    if (cursor < sorted_prefix_) return cursor;
  }
  while (cursor < accel_.size() && accel_[cursor].t_s <= t_s) ++cursor;
  return cursor;
}

double vibration_level(std::span<const AccelSample> trace, VibrationConfig config) {
  double last = 0.0;
  stream_mean_squares(trace, config,
                      [&last](double mean_square) { last = mean_square; });
  return std::sqrt(last);
}

double mean_vibration_level(std::span<const AccelSample> trace, VibrationConfig config) {
  const std::size_t warmup = config.window_samples();
  eacs::RunningStats stats;
  std::size_t index = 0;
  double last = 0.0;
  stream_mean_squares(trace, config, [&](double mean_square) {
    last = mean_square;
    if (++index >= warmup) stats.add(std::sqrt(mean_square));
  });
  // Short traces (< one window): fall back to the final level.
  if (stats.count() == 0) return std::sqrt(last);
  return stats.mean();
}

}  // namespace eacs::sensors
