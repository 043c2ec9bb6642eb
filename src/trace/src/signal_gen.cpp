#include "eacs/trace/signal_gen.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace eacs::trace {

SignalModel SignalModel::quiet_room() {
  SignalModel m;
  m.mean_dbm = -85.0;
  m.reversion_rate = 0.2;
  m.volatility = 0.8;
  m.fade_rate_per_s = 0.0;
  return m;
}

SignalModel SignalModel::moving_vehicle() {
  SignalModel m;
  m.mean_dbm = -108.0;
  m.reversion_rate = 0.12;
  m.volatility = 3.5;
  m.fade_rate_per_s = 1.0 / 40.0;
  m.fade_depth_db = 9.0;
  m.fade_duration_s = 7.0;
  return m;
}

SignalModel SignalModel::blended(double severity) {
  const double s = std::clamp(severity, 0.0, 1.0);
  const SignalModel room = quiet_room();
  const SignalModel vehicle = moving_vehicle();
  const auto lerp = [s](double a, double b) { return a + s * (b - a); };
  SignalModel m;
  m.mean_dbm = lerp(room.mean_dbm, vehicle.mean_dbm);
  m.reversion_rate = lerp(room.reversion_rate, vehicle.reversion_rate);
  m.volatility = lerp(room.volatility, vehicle.volatility);
  m.fade_rate_per_s = lerp(room.fade_rate_per_s, vehicle.fade_rate_per_s);
  m.fade_depth_db = vehicle.fade_depth_db;
  m.fade_duration_s = vehicle.fade_duration_s;
  return m;
}

SignalStrengthGenerator::SignalStrengthGenerator(SignalModel model, std::uint64_t seed)
    : model_(model), rng_(seed) {
  if (model_.volatility < 0.0 || model_.reversion_rate <= 0.0) {
    throw std::invalid_argument("SignalStrengthGenerator: bad OU parameters");
  }
}

TimeSeries SignalStrengthGenerator::generate(double duration_s, double dt_s,
                                             double start_dbm) {
  if (!(std::isfinite(duration_s) && duration_s > 0.0 && std::isfinite(dt_s) &&
        dt_s > 0.0)) {
    throw std::invalid_argument("SignalStrengthGenerator: bad durations");
  }
  // The loop below must end, and its samples must fit in one series: t has
  // to advance at every step up to the end, and the step count has to be
  // one a TimeSeries can hold.
  const double end_s = duration_s + 1e-9;
  if (!(end_s + dt_s > end_s) ||
      !(duration_s / dt_s < static_cast<double>(
                                std::vector<TimePoint>().max_size()))) {
    throw std::invalid_argument(
        "SignalStrengthGenerator: duration too long for its step");
  }
  TimeSeries out;
  double level = start_dbm > kFromModelMean ? start_dbm : model_.mean_dbm;
  // Active fade state: remaining seconds and current depth.
  double fade_remaining_s = 0.0;
  double fade_depth = 0.0;
  const double sqrt_dt = std::sqrt(dt_s);

  for (double t = 0.0; t <= end_s; t += dt_s) {
    // OU update.
    level += model_.reversion_rate * (model_.mean_dbm - level) * dt_s +
             model_.volatility * sqrt_dt * rng_.normal();
    // Fade arrivals.
    if (fade_remaining_s <= 0.0 && model_.fade_rate_per_s > 0.0 &&
        rng_.bernoulli(1.0 - std::exp(-model_.fade_rate_per_s * dt_s))) {
      fade_remaining_s = rng_.exponential(1.0 / model_.fade_duration_s);
      fade_depth = model_.fade_depth_db * (0.5 + rng_.uniform());
    }
    double effective = level;
    if (fade_remaining_s > 0.0) {
      effective -= fade_depth;
      fade_remaining_s -= dt_s;
    }
    out.append(t, std::clamp(effective, model_.min_dbm, model_.max_dbm));
  }
  return out;
}

}  // namespace eacs::trace
