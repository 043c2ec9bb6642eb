#include "eacs/core/task.h"

#include <stdexcept>

namespace eacs::core {

std::vector<TaskEnvironment> build_task_environments(
    const media::VideoManifest& manifest, const trace::SessionTraces& session,
    const sensors::VibrationTrack& vibration) {
  if (!vibration.built_from(session.accel)) {
    throw std::invalid_argument(
        "build_task_environments: vibration track not built from session.accel");
  }
  std::vector<TaskEnvironment> tasks;
  tasks.reserve(manifest.num_segments());

  // The segments tile the session in time order, so each trace is walked
  // once by a cursor (bit-identical to the stateless mean_over).
  trace::TimeSeriesCursor signal(session.signal_dbm);
  trace::TimeSeriesCursor throughput(session.throughput_mbps);
  std::size_t accel_cursor = 0;
  const std::size_t levels = manifest.ladder().size();
  for (std::size_t i = 0; i < manifest.num_segments(); ++i) {
    TaskEnvironment env;
    env.index = i;
    env.duration_s = manifest.segment_duration(i);
    const double t0 = static_cast<double>(i) * manifest.segment_duration_s();
    const double t1 = t0 + env.duration_s;
    env.signal_dbm = signal.mean_over(t0, t1);
    env.bandwidth_mbps = throughput.mean_over(t0, t1);
    accel_cursor = vibration.advance(accel_cursor, t0);
    env.vibration = vibration.level_after(accel_cursor);
    env.size_megabits.reserve(levels);
    for (std::size_t level = 0; level < levels; ++level) {
      env.size_megabits.push_back(manifest.segment_size_megabits(i, level));
    }
    tasks.push_back(std::move(env));
  }
  return tasks;
}

std::vector<TaskEnvironment> build_task_environments(
    const media::VideoManifest& manifest, const trace::SessionTraces& session) {
  return build_task_environments(manifest, session,
                                 sensors::VibrationTrack(session.accel));
}

}  // namespace eacs::core
