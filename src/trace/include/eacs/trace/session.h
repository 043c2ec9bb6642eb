#pragma once
// Builds the five evaluation sessions of Table V: each session couples a
// video (length + YouTube-baseline data size) with a signal-strength trace,
// a throughput trace and an accelerometer trace whose measured average
// vibration level matches the paper's reported value.

#include <cstdint>
#include <vector>

#include "eacs/media/catalogue.h"
#include "eacs/sensors/accel.h"
#include "eacs/sensors/sensor_health.h"
#include "eacs/trace/accel_gen.h"
#include "eacs/trace/signal_gen.h"
#include "eacs/trace/throughput_gen.h"
#include "eacs/trace/time_series.h"

namespace eacs::trace {

/// All traces for one viewing session.
struct SessionTraces {
  media::SessionSpec spec;
  TimeSeries signal_dbm;        ///< RSRP over time
  TimeSeries throughput_mbps;   ///< available downlink bandwidth over time
  sensors::AccelTrace accel;    ///< raw accelerometer stream
};

/// Knobs for session synthesis.
struct SessionBuildOptions {
  double margin_s = 120.0;      ///< trace length beyond video length, to cover
                                ///< startup delay and rebuffering overrun
  double signal_dt_s = 0.5;     ///< signal/throughput sampling period
  sensors::VibrationConfig vibration;  ///< estimator the calibration targets
};

/// Synthesises all traces for one Table V session. Deterministic in
/// spec.seed. The accelerometer trace is calibrated so that
/// sensors::mean_vibration_level(...) matches spec.avg_vibration within 3%.
///
/// Context coupling: sessions with higher vibration get weaker / more
/// volatile signal (severity = avg_vibration / 7), reflecting the paper's
/// observation that moving-vehicle sessions suffer both.
/// Throws std::invalid_argument for a non-finite spec.length_s (before any
/// generator runs) and for anything the generators reject.
SessionTraces build_session(const media::SessionSpec& spec,
                            const SessionBuildOptions& options = {});

/// Builds all five Table V sessions.
std::vector<SessionTraces> build_all_sessions(const SessionBuildOptions& options = {});

/// Converts a signal-strength TimeSeries into the discrete delivered-reading
/// stream that sensors::SensorFaultInjector consumes (one SignalSample per
/// trace point).
std::vector<sensors::SignalSample> signal_samples(const TimeSeries& signal_dbm);

}  // namespace eacs::trace
