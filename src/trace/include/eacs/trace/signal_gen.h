#pragma once
// Synthetic LTE signal-strength (RSRP, dBm) trace generator.
//
// Substitutes for the paper's `adb shell dumpsys telephony.registry` trace.
// The process is a mean-reverting Ornstein-Uhlenbeck random walk around a
// context-dependent mean, plus (for vehicle contexts) Poisson-arriving deep
// fades: driving past buildings/underpasses produces multi-dB drops lasting
// seconds, which is the regime where the paper's Fig. 1(a) energy penalty
// bites.

#include <cstdint>

#include "eacs/trace/time_series.h"
#include "eacs/util/rng.h"

namespace eacs::trace {

/// Parameters of the signal-strength process.
struct SignalModel {
  double mean_dbm = -90.0;        ///< long-run mean RSRP
  double reversion_rate = 0.15;   ///< OU theta (1/s)
  double volatility = 2.0;        ///< OU sigma (dB / sqrt(s))
  double min_dbm = -120.0;        ///< clamp floor
  double max_dbm = -70.0;         ///< clamp ceiling
  double fade_rate_per_s = 0.0;   ///< Poisson rate of deep-fade events
  double fade_depth_db = 10.0;    ///< mean extra attenuation during a fade
  double fade_duration_s = 6.0;   ///< mean fade duration

  /// Static indoor context: strong, stable signal.
  static SignalModel quiet_room();
  /// Moving-vehicle context: weak, volatile signal with deep fades.
  static SignalModel moving_vehicle();
  /// Interpolates room->vehicle by a severity in [0, 1]; used to match the
  /// per-session conditions implied by Table V's vibration column.
  static SignalModel blended(double severity);
};

/// Generates a signal-strength TimeSeries.
class SignalStrengthGenerator {
 public:
  SignalStrengthGenerator(SignalModel model, std::uint64_t seed);

  /// Generates `duration_s` seconds sampled every `dt_s` (default 0.5 s, the
  /// telephony-registry polling cadence). `start_dbm`, when finite, seeds
  /// the OU process at that level instead of the model mean — used by the
  /// scenario builder to keep the signal continuous across phase changes.
  /// Throws std::invalid_argument unless both durations are finite and > 0,
  /// `dt_s` advances t at `duration_s`, and the step count fits a TimeSeries.
  TimeSeries generate(double duration_s, double dt_s = 0.5,
                      double start_dbm = kFromModelMean);

  /// Sentinel: start the process at the model mean.
  static constexpr double kFromModelMean = -1e9;

 private:
  SignalModel model_;
  eacs::Rng rng_;
};

}  // namespace eacs::trace
