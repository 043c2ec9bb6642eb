#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "eacs/media/catalogue.h"
#include "eacs/sensors/vibration.h"
#include "eacs/trace/accel_gen.h"
#include "eacs/trace/session.h"
#include "eacs/trace/signal_gen.h"
#include "eacs/trace/throughput_gen.h"
#include "eacs/util/stats.h"

namespace eacs::trace {
namespace {

TEST(SignalGeneratorTest, DeterministicPerSeed) {
  SignalStrengthGenerator a(SignalModel::quiet_room(), 5);
  SignalStrengthGenerator b(SignalModel::quiet_room(), 5);
  const auto ta = a.generate(60.0);
  const auto tb = b.generate(60.0);
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) {
    EXPECT_DOUBLE_EQ(ta.at(i).value, tb.at(i).value);
  }
}

TEST(SignalGeneratorTest, RoomIsStrongerAndSteadierThanVehicle) {
  SignalStrengthGenerator room(SignalModel::quiet_room(), 7);
  SignalStrengthGenerator vehicle(SignalModel::moving_vehicle(), 7);
  const auto room_values = room.generate(600.0).values();
  const auto vehicle_values = vehicle.generate(600.0).values();
  EXPECT_GT(eacs::mean(room_values), eacs::mean(vehicle_values) + 10.0);
  EXPECT_LT(eacs::stddev(room_values), eacs::stddev(vehicle_values));
}

TEST(SignalGeneratorTest, ValuesClamped) {
  SignalModel model = SignalModel::moving_vehicle();
  model.volatility = 20.0;  // extreme volatility to hit the clamps
  SignalStrengthGenerator generator(model, 11);
  // Bind the series: samples() returns a reference into it, and a range-for
  // over generate(...).samples() would iterate a destroyed temporary.
  const auto series = generator.generate(300.0);
  for (const auto& point : series.samples()) {
    EXPECT_GE(point.value, model.min_dbm);
    EXPECT_LE(point.value, model.max_dbm);
  }
}

TEST(SignalGeneratorTest, BlendedInterpolates) {
  const auto zero = SignalModel::blended(0.0);
  const auto one = SignalModel::blended(1.0);
  const auto half = SignalModel::blended(0.5);
  EXPECT_DOUBLE_EQ(zero.mean_dbm, SignalModel::quiet_room().mean_dbm);
  EXPECT_DOUBLE_EQ(one.mean_dbm, SignalModel::moving_vehicle().mean_dbm);
  EXPECT_LT(one.mean_dbm, half.mean_dbm);
  EXPECT_LT(half.mean_dbm, zero.mean_dbm);
}

TEST(SignalGeneratorTest, InvalidInputsThrow) {
  SignalModel model;
  model.reversion_rate = 0.0;
  EXPECT_THROW(SignalStrengthGenerator(model, 1), std::invalid_argument);
  SignalStrengthGenerator ok(SignalModel::quiet_room(), 1);
  EXPECT_THROW(ok.generate(-1.0), std::invalid_argument);
  EXPECT_THROW(ok.generate(10.0, 0.0), std::invalid_argument);
}

TEST(ThroughputModelTest, CapacityFallsWithSignal) {
  const ThroughputModel model;
  EXPECT_GT(model.capacity_mbps(-80.0), model.capacity_mbps(-95.0));
  EXPECT_GT(model.capacity_mbps(-95.0), model.capacity_mbps(-110.0));
  // Halves per halving_db of extra path loss.
  const double at_90 = model.capacity_mbps(-90.0);
  const double at_halved = model.capacity_mbps(-90.0 - model.halving_db);
  EXPECT_NEAR(at_90 / at_halved, 2.0, 0.01);
}

TEST(ThroughputModelTest, CapacityClamped) {
  const ThroughputModel model;
  EXPECT_DOUBLE_EQ(model.capacity_mbps(-200.0), model.min_mbps);
  EXPECT_DOUBLE_EQ(model.capacity_mbps(-20.0), model.max_mbps);
}

TEST(ThroughputGeneratorTest, AlignedWithSignalTrace) {
  SignalStrengthGenerator signal_gen(SignalModel::quiet_room(), 13);
  const auto signal = signal_gen.generate(120.0);
  ThroughputGenerator throughput_gen(ThroughputModel{}, 13);
  const auto throughput = throughput_gen.generate(signal);
  ASSERT_EQ(throughput.size(), signal.size());
  for (std::size_t i = 0; i < throughput.size(); ++i) {
    EXPECT_DOUBLE_EQ(throughput.at(i).t_s, signal.at(i).t_s);
    EXPECT_GT(throughput.at(i).value, 0.0);
  }
}

TEST(ThroughputGeneratorTest, WeakSignalMeansLessBandwidth) {
  SignalStrengthGenerator room_signal(SignalModel::quiet_room(), 17);
  SignalStrengthGenerator vehicle_signal(SignalModel::moving_vehicle(), 17);
  ThroughputGenerator gen_a(ThroughputModel{}, 19);
  ThroughputGenerator gen_b(ThroughputModel{}, 19);
  const auto room = gen_a.generate(room_signal.generate(600.0)).values();
  const auto vehicle = gen_b.generate(vehicle_signal.generate(600.0)).values();
  EXPECT_GT(eacs::mean(room), 2.0 * eacs::mean(vehicle));
}

TEST(ThroughputGeneratorTest, EmptySignalThrows) {
  ThroughputGenerator generator(ThroughputModel{}, 1);
  EXPECT_THROW(generator.generate(TimeSeries{}), std::invalid_argument);
}

TEST(AccelGeneratorTest, QuietRoomNearZeroVibration) {
  AccelGenerator generator(AccelModel::quiet_room(), 23);
  const auto trace = generator.generate(60.0);
  EXPECT_LT(sensors::mean_vibration_level(trace), 0.2);
}

TEST(AccelGeneratorTest, VehicleVibrates) {
  AccelGenerator generator(AccelModel::moving_vehicle(), 23);
  const auto trace = generator.generate(60.0);
  EXPECT_GT(sensors::mean_vibration_level(trace), 0.5);
}

TEST(AccelGeneratorTest, SampleCadenceAndGravity) {
  AccelGenerator generator(AccelModel::quiet_room(), 29);
  const auto trace = generator.generate(10.0);
  ASSERT_GT(trace.size(), 490U);
  EXPECT_NEAR(trace[1].t_s - trace[0].t_s, 0.02, 1e-9);
  // Mean magnitude stays near gravity in a quiet room.
  double mean_magnitude = 0.0;
  for (const auto& sample : trace) mean_magnitude += sample.magnitude();
  mean_magnitude /= static_cast<double>(trace.size());
  EXPECT_NEAR(mean_magnitude, sensors::kGravity, 0.1);
}

TEST(AccelGeneratorTest, CalibrationHitsTarget) {
  for (const double target : {2.46, 5.23, 6.83}) {
    AccelGenerator generator(AccelModel::moving_vehicle(), 31);
    const auto trace = generator.generate_calibrated(120.0, target);
    const double measured = sensors::mean_vibration_level(trace);
    EXPECT_NEAR(measured / target, 1.0, 0.05) << "target " << target;
  }
}

TEST(AccelGeneratorTest, CalibrationZeroTargetIsQuiet) {
  AccelGenerator generator(AccelModel::moving_vehicle(), 37);
  const auto trace = generator.generate_calibrated(30.0, 0.0);
  EXPECT_LT(sensors::mean_vibration_level(trace), 0.2);
}

TEST(AccelGeneratorTest, CalibrationWorksFromQuietModel) {
  // Even a quiet-room model can be calibrated up: the generator bootstraps a
  // harmonic bank when the base waveform has no vibration energy.
  AccelGenerator generator(AccelModel::quiet_room(), 41);
  const auto trace = generator.generate_calibrated(60.0, 3.0);
  EXPECT_NEAR(sensors::mean_vibration_level(trace), 3.0, 0.25);
}

TEST(AccelGeneratorTest, InvalidInputsThrow) {
  AccelModel model;
  model.sample_rate_hz = 0.0;
  EXPECT_THROW(AccelGenerator(model, 1), std::invalid_argument);
  AccelGenerator ok(AccelModel::quiet_room(), 1);
  EXPECT_THROW(ok.generate(0.0), std::invalid_argument);
  // A sample count past std::size_t's range must not wrap to a short trace.
  EXPECT_THROW(ok.generate(1e300), std::invalid_argument);
  EXPECT_THROW(ok.generate_calibrated(1e300, 3.0), std::invalid_argument);
}

/// FNV-1a (64-bit) over the bit pattern of every folded double: two inputs
/// digest equal iff every value is bit-identical, as their %a dumps are.
class BitDigest {
 public:
  BitDigest& add(double v) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (bits >> (8 * i)) & 0xFFU;
      hash_ *= 0x100000001B3ULL;
    }
    return *this;
  }
  BitDigest& add(const sensors::AccelTrace& trace) {
    for (const auto& s : trace) add(s.t_s).add(s.x).add(s.y).add(s.z);
    return *this;
  }
  BitDigest& add(const TimeSeries& series) {
    for (const auto& p : series.samples()) add(p.t_s).add(p.value);
    return *this;
  }
  std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

std::uint64_t digest(const sensors::AccelTrace& trace) {
  return BitDigest().add(trace).value();
}

TEST(SignalGeneratorTest, DurationsThatCannotEndThrow) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  SignalStrengthGenerator generator(SignalModel::quiet_room(), 1);
  for (const double duration : {kInf, kNan}) {
    EXPECT_THROW(generator.generate(duration), std::invalid_argument);
  }
  for (const double dt : {kInf, kNan}) {
    EXPECT_THROW(generator.generate(10.0, dt), std::invalid_argument);
  }
  // More steps than a TimeSeries can hold.
  EXPECT_THROW(generator.generate(1e300, 1e-3), std::invalid_argument);
  // A step too small to advance t past the duration (1 < ulp(1e17) / 2).
  EXPECT_THROW(generator.generate(1e17, 1.0), std::invalid_argument);
  // Rejected calls draw nothing: the next series is a fresh generator's.
  SignalStrengthGenerator fresh(SignalModel::quiet_room(), 1);
  EXPECT_EQ(BitDigest().add(generator.generate(60.0)).value(),
            BitDigest().add(fresh.generate(60.0)).value());

  // build_session rejects a non-finite length before any generator runs.
  media::SessionSpec spec = media::evaluation_sessions().front();
  for (const double length : {kInf, -kInf, kNan}) {
    spec.length_s = length;
    EXPECT_THROW(build_session(spec), std::invalid_argument);
  }
}

TEST(AccelGeneratorTest, NonFiniteInputsThrow) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  AccelModel model;
  model.sample_rate_hz = kNan;
  EXPECT_THROW(AccelGenerator(model, 1), std::invalid_argument);
  model.sample_rate_hz = kInf;
  EXPECT_THROW(AccelGenerator(model, 1), std::invalid_argument);

  AccelGenerator generator(AccelModel::moving_vehicle(), 1);
  for (const double duration : {kNan, kInf, -kInf}) {
    EXPECT_THROW(generator.generate(duration), std::invalid_argument);
    EXPECT_THROW(generator.generate_calibrated(duration, 3.0),
                 std::invalid_argument);
  }
  for (const double target : {kNan, kInf, -kInf}) {
    EXPECT_THROW(generator.generate_calibrated(10.0, target),
                 std::invalid_argument);
  }
  for (const double tolerance : {kNan, kInf, -0.01}) {
    EXPECT_THROW(generator.generate_calibrated(10.0, 3.0, {}, tolerance),
                 std::invalid_argument);
  }
  // Rejected calls draw no stream seed: the next trace is the one a fresh
  // generator with the same seed makes.
  AccelGenerator fresh(AccelModel::moving_vehicle(), 1);
  EXPECT_EQ(digest(generator.generate_calibrated(10.0, 3.0)),
            digest(fresh.generate_calibrated(10.0, 3.0)));
}

/// Largest DFT magnitude (per sample) of the z axis over 5-24 Hz: the band
/// of the vehicle's harmonic bank, which a walking trace (cadence ~2 Hz and
/// its first harmonic) leaves to sensor noise.
double peak_band_magnitude(const sensors::AccelTrace& trace, double sample_rate_hz) {
  constexpr double kPi = 3.14159265358979323846;
  const std::size_t n = trace.size();
  double mean = 0.0;
  for (const auto& s : trace) mean += s.z;
  mean /= static_cast<double>(n);
  double peak = 0.0;
  for (std::size_t k = 1; k < n / 2; ++k) {
    const double freq = static_cast<double>(k) * sample_rate_hz / static_cast<double>(n);
    if (freq < 5.0 || freq > 24.0) continue;
    double re = 0.0;
    double im = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double angle = 2.0 * kPi * static_cast<double>(k * i % n) /
                           static_cast<double>(n);
      re += (trace[i].z - mean) * std::cos(angle);
      im -= (trace[i].z - mean) * std::sin(angle);
    }
    peak = std::max(peak, std::hypot(re, im) / static_cast<double>(n));
  }
  return peak;
}

TEST(AccelGeneratorTest, WalkingCalibrationKeepsTheNarrowbandSignature) {
  // Calibrating a walking trace scales its bobbing; it must not bootstrap
  // the vehicle's broadband harmonic bank, which only a model with no
  // vibration waveform at all (quiet room) needs.
  const AccelModel walking = AccelModel::walking();
  AccelGenerator plain(walking, 43);
  AccelGenerator calibrated(walking, 43);
  const sensors::AccelTrace trace = calibrated.generate_calibrated(60.0, 2.0);
  EXPECT_NEAR(sensors::mean_vibration_level(trace), 2.0, 0.03 * 2.0);
  const double uncalibrated_peak =
      peak_band_magnitude(plain.generate(60.0), walking.sample_rate_hz);
  const double calibrated_peak = peak_band_magnitude(trace, walking.sample_rate_hz);
  EXPECT_LT(uncalibrated_peak, 0.01);
  EXPECT_LT(calibrated_peak, 2.0 * uncalibrated_peak);
}

TEST(AccelGeneratorTest, CalibratedTracesMatchPinnedDigest) {
  // Pins every bit of the synthesized traces: the Table V sessions (signal,
  // throughput and accelerometer) and each accelerometer path — vehicle and
  // walking calibration, the quiet-room bootstrap, target 0 and the plain
  // uncalibrated waveform (twice from one generator, so the per-call stream
  // seed is pinned too).
  BitDigest sessions;
  for (const SessionTraces& s : build_all_sessions()) {
    sessions.add(s.signal_dbm).add(s.throughput_mbps).add(s.accel);
  }
  EXPECT_EQ(sessions.value(), 0x526def718c61a7b5ULL);

  AccelGenerator vehicle(AccelModel::moving_vehicle(), 31);
  EXPECT_EQ(digest(vehicle.generate_calibrated(120.0, 5.23)), 0xd5e0df78639e6c1bULL);
  AccelGenerator walking(AccelModel::walking(), 43);
  EXPECT_EQ(digest(walking.generate_calibrated(60.0, 2.0)), 0xbb4452cbb010778aULL);
  AccelGenerator quiet(AccelModel::quiet_room(), 41);
  EXPECT_EQ(digest(quiet.generate_calibrated(60.0, 3.0)), 0xeafbcd78fd3c5560ULL);
  AccelGenerator still(AccelModel::moving_vehicle(), 37);
  EXPECT_EQ(digest(still.generate_calibrated(30.0, 0.0)), 0xfdc3d672a7f7241bULL);
  AccelGenerator plain(AccelModel::moving_vehicle(), 23);
  EXPECT_EQ(digest(plain.generate(60.0)), 0x2b38f99662c1b644ULL);
  EXPECT_EQ(digest(plain.generate(60.0)), 0x694d8bc22435119eULL);
}

}  // namespace
}  // namespace eacs::trace
