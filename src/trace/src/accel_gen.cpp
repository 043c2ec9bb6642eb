#include "eacs/trace/accel_gen.h"

#include <cmath>
#include <stdexcept>
#include <vector>

namespace eacs::trace {
namespace {

constexpr double kPi = 3.14159265358979323846;

}  // namespace

AccelModel AccelModel::quiet_room() {
  AccelModel m;
  m.sensor_noise = 0.03;
  m.sway_amplitude = 0.02;
  m.bump_rate_per_s = 0.0;
  m.bump_amplitude = 0.0;
  m.harmonic_energy = 0.0;
  return m;
}

AccelModel AccelModel::moving_vehicle() {
  AccelModel m;
  m.sensor_noise = 0.05;
  m.sway_amplitude = 0.2;
  m.bump_rate_per_s = 0.25;
  m.bump_amplitude = 3.0;
  m.harmonic_energy = 1.0;
  return m;
}

AccelModel AccelModel::walking() {
  AccelModel m;
  m.sensor_noise = 0.05;
  m.sway_amplitude = 0.15;
  m.walk_cadence_hz = 1.9;
  m.walk_amplitude = 1.8;
  return m;
}

AccelGenerator::AccelGenerator(AccelModel model, std::uint64_t seed)
    : model_(model), rng_(seed) {
  if (!(std::isfinite(model_.sample_rate_hz) && model_.sample_rate_hz > 0.0)) {
    throw std::invalid_argument(
        "AccelGenerator: sample rate must be finite and > 0");
  }
}

namespace {

/// One sample of a stream's scale-free parts: everything but the single
/// multiply by the vibration scale.
struct WaveformSample {
  double vib;      ///< vibration after modulation, walking and bumps
  double base_x;   ///< sway + x noise
  double base_y;   ///< 0.5 sway + y noise
  double noise_z;  ///< z noise
};

/// Draws the stream `stream_seed` of `model`: every random draw and every
/// transcendental of the waveform, none of which depends on the scale.
std::vector<WaveformSample> synthesize(const AccelModel& model,
                                       double duration_s,
                                       std::uint64_t stream_seed) {
  eacs::Rng rng(stream_seed);
  const double dt = 1.0 / model.sample_rate_hz;
  const auto count = static_cast<std::size_t>(duration_s * model.sample_rate_hz) + 1;

  // Road/engine harmonic bank: frequencies fixed per stream, amplitudes
  // weighted toward the low end (suspension resonance ~1-3 Hz dominates).
  struct Harmonic {
    double freq_hz, amplitude, phase;
  };
  std::vector<Harmonic> harmonics;
  if (model.harmonic_energy > 0.0) {
    const double base_freqs[] = {1.3, 2.4, 3.6, 7.5, 12.0, 17.0};
    const double weights[] = {1.0, 0.8, 0.55, 0.3, 0.2, 0.15};
    for (std::size_t i = 0; i < 6; ++i) {
      harmonics.push_back({base_freqs[i] * (0.9 + 0.2 * rng.uniform()),
                           model.harmonic_energy * weights[i],
                           rng.uniform(0.0, 2.0 * kPi)});
    }
  }

  std::vector<WaveformSample> out;
  out.reserve(count);
  double bump_level = 0.0;  // decaying bump envelope
  double bump_sign = 1.0;
  double sway_phase = rng.uniform(0.0, 2.0 * kPi);
  // Slow amplitude modulation of the harmonics (road roughness changes).
  double modulation = 1.0;

  for (std::size_t i = 0; i < count; ++i) {
    const double t = static_cast<double>(i) * dt;
    // Vibration waveform along the phone's z axis (screen normal).
    double vib = 0.0;
    for (const auto& h : harmonics) {
      vib += h.amplitude * std::sin(2.0 * kPi * h.freq_hz * t + h.phase);
    }
    // Road roughness modulation: mean-reverting around 1.
    modulation += 0.02 * (1.0 - modulation) + 0.02 * rng.normal();
    if (modulation < 0.2) modulation = 0.2;
    vib *= modulation;

    // Walking: narrowband vertical bobbing at the step cadence plus its
    // first harmonic (heel-strike sharpening).
    if (model.walk_cadence_hz > 0.0 && model.walk_amplitude > 0.0) {
      vib += model.walk_amplitude *
             (std::sin(2.0 * kPi * model.walk_cadence_hz * t) +
              0.35 * std::sin(2.0 * kPi * 2.0 * model.walk_cadence_hz * t + 0.7));
    }

    // Bumps: decaying oscillatory transient.
    if (model.bump_rate_per_s > 0.0 &&
        rng.bernoulli(1.0 - std::exp(-model.bump_rate_per_s * dt))) {
      bump_level = model.bump_amplitude * (0.5 + rng.uniform());
      bump_sign = rng.bernoulli(0.5) ? 1.0 : -1.0;
    }
    if (bump_level > 1e-3) {
      vib += bump_sign * bump_level * std::sin(2.0 * kPi * 9.0 * t);
      bump_level *= std::exp(-dt / 0.25);  // ~0.25 s decay constant
    }

    // Handheld sway: slow, survives in x/y.
    sway_phase += 2.0 * kPi * 0.3 * dt;
    const double sway = model.sway_amplitude * std::sin(sway_phase);

    WaveformSample sample;
    sample.vib = vib;
    sample.base_x = sway + rng.normal(0.0, model.sensor_noise);
    sample.base_y = 0.5 * sway + rng.normal(0.0, model.sensor_noise);
    sample.noise_z = rng.normal(0.0, model.sensor_noise);
    out.push_back(sample);
  }
  return out;
}

/// Writes `wave` with its vibration scaled by `scale` into `out`, reusing
/// its buffer. Only the scale multiply and the per-axis sums run here, in a
/// fixed order, so a trace's bits depend on (stream, scale) alone.
void rescale(const std::vector<WaveformSample>& wave, double sample_rate_hz,
             double scale, sensors::AccelTrace& out) {
  const double dt = 1.0 / sample_rate_hz;
  out.resize(wave.size());
  for (std::size_t i = 0; i < wave.size(); ++i) {
    const WaveformSample& w = wave[i];
    const double vib = w.vib * scale;
    sensors::AccelSample& sample = out[i];
    sample.t_s = static_cast<double>(i) * dt;
    sample.x = w.base_x + 0.3 * vib;
    sample.y = w.base_y + 0.2 * vib;
    sample.z = sensors::kGravity + vib + w.noise_z;
  }
}

void check_duration(double duration_s, double sample_rate_hz) {
  if (!(std::isfinite(duration_s) && duration_s > 0.0)) {
    throw std::invalid_argument("AccelGenerator: duration must be finite and > 0");
  }
  // The sample count is cast to std::size_t, which is undefined past its range.
  if (!(duration_s * sample_rate_hz <
        static_cast<double>(sensors::AccelTrace().max_size()))) {
    throw std::invalid_argument("AccelGenerator: duration too long for one trace");
  }
}

}  // namespace

sensors::AccelTrace AccelGenerator::generate(double duration_s) {
  check_duration(duration_s, model_.sample_rate_hz);
  sensors::AccelTrace trace;
  rescale(synthesize(model_, duration_s, rng_.next_u64()), model_.sample_rate_hz,
          1.0, trace);
  return trace;
}

sensors::AccelTrace AccelGenerator::generate_calibrated(double duration_s,
                                                        double target_level,
                                                        sensors::VibrationConfig config,
                                                        double tolerance) {
  check_duration(duration_s, model_.sample_rate_hz);
  if (!std::isfinite(target_level)) {
    throw std::invalid_argument("AccelGenerator: target level must be finite");
  }
  if (!(std::isfinite(tolerance) && tolerance >= 0.0)) {
    throw std::invalid_argument(
        "AccelGenerator: tolerance must be finite and >= 0");
  }
  // The stream seed is fixed across calibration iterations: the waveform is
  // drawn once and each iteration only rescales it.
  std::uint64_t stream_seed = rng_.next_u64();
  sensors::AccelTrace trace;

  if (target_level <= 0.0) {
    rescale(synthesize(model_, duration_s, stream_seed), model_.sample_rate_hz,
            0.0, trace);
    return trace;
  }

  // A model with no vibration waveform (quiet room: noise and sway only)
  // cannot reach a positive target by scaling; bootstrap a unit harmonic
  // bank, on the first stream of a generator seeded `stream_seed ^ 0xABCD`.
  // Walking bobbing is a waveform too: it is scaled, never topped up.
  AccelModel model = model_;
  const bool walks = model.walk_cadence_hz > 0.0 && model.walk_amplitude > 0.0;
  if (model.harmonic_energy <= 0.0 && model.bump_rate_per_s <= 0.0 && !walks) {
    model.harmonic_energy = 1.0;
    stream_seed = eacs::Rng(stream_seed ^ 0xABCDULL).next_u64();
  }
  const std::vector<WaveformSample> wave = synthesize(model, duration_s, stream_seed);

  // The measured level is monotone (affine up to the noise floor) in the
  // scale, so a secant iteration converges in a couple of steps.
  double scale = 1.0;
  rescale(wave, model.sample_rate_hz, scale, trace);
  double measured = sensors::mean_vibration_level(trace, config);
  if (measured <= 1e-9) return trace;  // defensive: nothing to scale

  for (int iter = 0; iter < 8; ++iter) {
    const double relative_error = std::fabs(measured - target_level) / target_level;
    if (relative_error <= tolerance) break;
    scale *= target_level / measured;
    rescale(wave, model.sample_rate_hz, scale, trace);
    measured = sensors::mean_vibration_level(trace, config);
  }
  return trace;
}

}  // namespace eacs::trace
