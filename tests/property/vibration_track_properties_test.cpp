// Property tests for sensors::VibrationTrack and the cursors that read it
// (player::VibrationClock, core::build_task_environments).
//
// The track replaces a streaming VibrationEstimator that every replay used to
// walk from sample 0 (`while (t_s <= t) update(sample)`). Over random traces
// with rejected samples, duplicate, NaN and out-of-order timestamps, the
// track plus cursor must stop where that walk stops and report the same
// level, bit for bit, at every query time.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "eacs/core/task.h"
#include "eacs/media/manifest.h"
#include "eacs/player/session_engine.h"
#include "eacs/sensors/vibration.h"
#include "eacs/util/rng.h"
#include "eacs/util/stats.h"

namespace eacs {
namespace {

using sensors::AccelSample;
using sensors::AccelTrace;
using sensors::VibrationConfig;
using sensors::VibrationEstimator;
using sensors::VibrationTrack;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// The streaming walk the track replaces, as the engine and the task builder
/// ran it: consume every sample with timestamp <= t, read the level.
class ReferenceWalk {
 public:
  ReferenceWalk(const AccelTrace& trace, VibrationConfig config)
      : trace_(&trace), estimator_(config) {}

  double advance_to(double t) {
    while (cursor_ < trace_->size() && (*trace_)[cursor_].t_s <= t) {
      estimator_.update((*trace_)[cursor_]);
      ++cursor_;
    }
    return estimator_.level();
  }
  std::size_t cursor() const { return cursor_; }

 private:
  const AccelTrace* trace_;
  VibrationEstimator estimator_;
  std::size_t cursor_ = 0;
};

struct TraceShape {
  bool non_finite_axes = false;
  bool duplicates = false;
  bool nan_timestamp = false;
  bool decreasing_timestamp = false;
};

TraceShape shape_of(bool non_finite_axes, bool duplicates, bool nan_timestamp,
                    bool decreasing_timestamp) {
  TraceShape shape;
  shape.non_finite_axes = non_finite_axes;
  shape.duplicates = duplicates;
  shape.nan_timestamp = nan_timestamp;
  shape.decreasing_timestamp = decreasing_timestamp;
  return shape;
}

/// A 50 Hz-ish trace of `n` samples with a vibrating z axis, jittered
/// timestamps and, per `shape`, the irregularities the cursor must handle.
AccelTrace random_trace(Rng& rng, std::size_t n, TraceShape shape) {
  AccelTrace trace;
  double t = rng.uniform(0.0, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    AccelSample s;
    s.t_s = t;
    s.x = rng.normal(0.0, 0.3);
    s.y = rng.normal(0.0, 0.3);
    s.z = sensors::kGravity + rng.normal(0.0, 2.0);
    if (shape.non_finite_axes && rng.uniform() < 0.05) {
      const double bad = rng.uniform() < 0.5 ? kNaN : kInf;
      (rng.uniform() < 0.5 ? s.x : s.z) = bad;
    }
    trace.push_back(s);
    // Duplicates repeat the timestamp; otherwise step ~20 ms.
    if (!(shape.duplicates && rng.uniform() < 0.1)) t += rng.uniform(0.005, 0.035);
  }
  if (n > 4 && shape.nan_timestamp) {
    trace[rng.uniform_int(1, n - 2)].t_s = kNaN;
  }
  if (n > 4 && shape.decreasing_timestamp) {
    const std::size_t k = rng.uniform_int(2, n - 1);
    trace[k].t_s = trace[k - 1].t_s - rng.uniform(0.05, 1.0);
  }
  return trace;
}

/// Non-decreasing query times: every finite sample timestamp, the doubles on
/// both sides of each, before the first and after the last sample, and ±inf.
std::vector<double> query_times(const AccelTrace& trace) {
  std::vector<double> times = {-kInf, kInf};
  double lo = 0.0;
  double hi = 0.0;
  for (const AccelSample& s : trace) {
    if (std::isnan(s.t_s)) continue;
    times.push_back(s.t_s);
    times.push_back(std::nextafter(s.t_s, -kInf));
    times.push_back(std::nextafter(s.t_s, kInf));
    lo = std::min(lo, s.t_s);
    hi = std::max(hi, s.t_s);
  }
  times.push_back(lo - 1.0);
  times.push_back(hi + 1.0);
  std::sort(times.begin(), times.end());
  return times;
}

/// Checks level_after() against update() and a VibrationClock against the
/// reference walk over `queries` (a NaN query is also interleaved: the walk
/// must not move on it).
void expect_track_matches_stream(const AccelTrace& trace, VibrationConfig config,
                                 const std::vector<double>& queries) {
  const VibrationTrack track(trace, config);
  ASSERT_EQ(track.size(), trace.size());
  ASSERT_TRUE(track.built_from(trace));
  EXPECT_EQ(bits(track.level_after(0)), bits(0.0));

  VibrationEstimator estimator(config);
  for (std::size_t n = 0; n < trace.size(); ++n) {
    const double level = estimator.update(trace[n]);
    ASSERT_EQ(bits(track.level_after(n + 1)), bits(level)) << "sample " << n;
  }

  ReferenceWalk walk(trace, config);
  player::VibrationClock clock(track);
  std::size_t cursor = 0;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const double t = queries[q];
    const double expected = walk.advance_to(t);
    ASSERT_EQ(bits(clock.advance_to(t)), bits(expected)) << "query " << t;
    ASSERT_EQ(bits(clock.level()), bits(expected));
    cursor = track.advance(cursor, t);
    ASSERT_EQ(cursor, walk.cursor()) << "query " << t;
    if (q % 7 == 3) {
      ASSERT_EQ(bits(clock.advance_to(kNaN)), bits(walk.advance_to(kNaN)));
      ASSERT_EQ(track.advance(cursor, kNaN), walk.cursor());
    }
  }
}

VibrationConfig short_window() {
  VibrationConfig config;
  config.window_s = 0.3;
  return config;
}

TEST(VibrationTrackProperties, CursorMatchesStreamingEstimatorOnRandomTraces) {
  Rng rng(0x7A4C'0001ULL);
  const VibrationConfig configs[] = {VibrationConfig{}, short_window()};
  for (int trial = 0; trial < 48; ++trial) {
    // trial % 8 == 7 carries both a NaN and a decreasing timestamp.
    const TraceShape shape =
        shape_of(trial % 2 == 0, trial % 3 != 0, trial % 4 == 1 || trial % 8 == 7,
                 trial % 4 == 2 || trial % 8 == 7);
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(5, 900));
    const AccelTrace trace = random_trace(rng, n, shape);
    SCOPED_TRACE(::testing::Message() << "trial " << trial << " n " << n);
    expect_track_matches_stream(trace, configs[trial % 2], query_times(trace));
  }
}

TEST(VibrationTrackProperties, EmptyTrace) {
  const AccelTrace empty;
  const VibrationTrack track(empty);
  EXPECT_EQ(track.size(), 0U);
  EXPECT_EQ(bits(track.level_after(0)), bits(0.0));
  EXPECT_EQ(track.advance(0, kInf), 0U);
  expect_track_matches_stream(empty, VibrationConfig{}, {-kInf, 0.0, 1.0, kInf});
}

TEST(VibrationTrackProperties, LeadingNanAndInfiniteTimestamps) {
  // A NaN first timestamp blocks the walk for good; ±inf timestamps are
  // ordinary ordered values inside the sorted prefix.
  Rng rng(0x7A4C'0002ULL);
  AccelTrace blocked = random_trace(rng, 40, {});
  blocked[0].t_s = kNaN;
  expect_track_matches_stream(blocked, VibrationConfig{}, query_times(blocked));

  AccelTrace infinite = random_trace(rng, 40, {});
  infinite[0].t_s = -kInf;
  infinite[1].t_s = -kInf;
  infinite[39].t_s = kInf;
  expect_track_matches_stream(infinite, VibrationConfig{}, query_times(infinite));
}

TEST(VibrationTrackProperties, CursorJumpsAcrossLongGaps) {
  // Sparse queries make the cursor gallop over hundreds of samples at once.
  Rng rng(0x7A4C'0003ULL);
  const AccelTrace trace = random_trace(rng, 3000, shape_of(false, true, false, false));
  std::vector<double> sparse;
  for (double t = -1.0; t < trace.back().t_s + 2.0; t += rng.uniform(0.0, 9.0)) {
    sparse.push_back(t);
  }
  expect_track_matches_stream(trace, VibrationConfig{}, sparse);
}

TEST(VibrationTrackProperties, BatchHelpersMatchTheStreamingEstimator) {
  Rng rng(0x7A4C'0004ULL);
  for (int trial = 0; trial < 12; ++trial) {
    const VibrationConfig config = trial % 2 == 0 ? VibrationConfig{} : short_window();
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(0, 1200));
    const AccelTrace trace =
        random_trace(rng, n, shape_of(true, true, false, false));

    VibrationEstimator estimator(config);
    RunningStats stats;
    std::size_t index = 0;
    double last = 0.0;
    for (const AccelSample& s : trace) {
      last = estimator.update(s);
      if (++index >= config.window_samples()) stats.add(last);
    }
    const double mean = stats.count() == 0 ? estimator.level() : stats.mean();
    EXPECT_EQ(bits(sensors::vibration_level(trace, config)), bits(last));
    EXPECT_EQ(bits(sensors::mean_vibration_level(trace, config)), bits(mean));
  }
}

TEST(VibrationTrackProperties, TaskBuilderReadsTheTrackLikeTheStreamingWalk) {
  Rng rng(0x7A4C'0005ULL);
  const media::VideoManifest manifest("vib-track", 30.0, 2.0,
                                      media::BitrateLadder::evaluation14());
  for (int trial = 0; trial < 8; ++trial) {
    trace::SessionTraces session;
    for (double t = 0.0; t <= 40.0; t += 0.5) {
      session.signal_dbm.append(t, -95.0);
      session.throughput_mbps.append(t, 6.0);
    }
    session.accel =
        random_trace(rng, 1600, shape_of(true, true, trial == 5, trial % 2 == 1));
    const VibrationConfig config = trial % 2 == 0 ? VibrationConfig{} : short_window();
    const VibrationTrack track(session.accel, config);
    const auto tasks = core::build_task_environments(manifest, session, track);
    ReferenceWalk walk(session.accel, config);
    ASSERT_EQ(tasks.size(), manifest.num_segments());
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      const double t0 = static_cast<double>(i) * manifest.segment_duration_s();
      EXPECT_EQ(bits(tasks[i].vibration), bits(walk.advance_to(t0))) << "task " << i;
    }
  }
}

TEST(VibrationTrackProperties, TaskBuilderRejectsAForeignTrack) {
  trace::SessionTraces session;
  session.throughput_mbps.append(0.0, 5.0);
  session.signal_dbm.append(0.0, -90.0);
  session.accel = {{0.0, 0.0, 0.0, 9.8}, {0.02, 0.0, 0.0, 9.9}};
  const AccelTrace copy = session.accel;
  const media::VideoManifest manifest("foreign", 4.0, 2.0,
                                      media::BitrateLadder::evaluation14());
  EXPECT_THROW(core::build_task_environments(manifest, session, VibrationTrack(copy)),
               std::invalid_argument);
  EXPECT_NO_THROW(
      core::build_task_environments(manifest, session, VibrationTrack(session.accel)));
}

}  // namespace
}  // namespace eacs
