#pragma once
// The harness behind the trace-replay fault studies (fault_study.h,
// sensor_fault_study.h, cdn_fault_study.h).
//
// Each study replays the Table V sessions once per baseline and once per
// (grid cell, session) of its sweep. StudyGrid owns what they share: the
// axis check, the per-session state (sessions, manifests, simulators and
// vibration tracks, built once), metric accounting, and the two fan-outs.
// A study keeps only its spec builder, its unit function and its serial
// reduction. Units must stay pure in their index (DESIGN §6): a unit that
// needs a seed derives it with seed_mix from its own cell and session.

#include <cstddef>
#include <span>
#include <string_view>
#include <vector>

#include "eacs/player/player.h"
#include "eacs/power/model.h"
#include "eacs/qoe/model.h"
#include "eacs/sensors/vibration.h"
#include "eacs/sim/evaluation.h"
#include "eacs/sim/metrics.h"
#include "eacs/trace/session.h"
#include "eacs/util/thread_pool.h"

namespace eacs::sim {

class StudyGrid {
 public:
  /// Builds every Table V session of `evaluation.session_options` with its
  /// manifest, a simulator under `player` and its vibration track.
  StudyGrid(const EvaluationConfig& evaluation, const player::PlayerConfig& player);

  /// Throws std::invalid_argument, naming `study`, on an empty axis or a
  /// non-finite or negative value.
  static void check_axis(std::string_view study, std::span<const double> axis);

  std::size_t size() const noexcept { return sessions_.size(); }
  const trace::SessionTraces& session(std::size_t s) const { return sessions_[s]; }
  const media::VideoManifest& manifest(std::size_t s) const { return manifests_[s]; }
  const sensors::VibrationTrack& track(std::size_t s) const { return tracks_[s]; }

  /// Replays session `s` with `policy` over the clean link, or over `link`
  /// (a net::FaultInjector, a sensors::SensorFaultInjector or a span of
  /// net::SegmentSource), sharing the session's vibration track.
  template <class... Link>
  player::PlaybackResult replay(std::size_t s, player::AbrPolicy& policy,
                                const Link&... link) const {
    return simulators_[s].run(policy, sessions_[s], link..., nullptr, &tracks_[s]);
  }

  /// compute_metrics under the evaluation's QoE and power models.
  SessionMetrics metrics(std::size_t s, const player::AbrPolicy& policy,
                         const player::PlaybackResult& playback) const;

  /// unit(s) for every session, in session order.
  template <class Unit>
  auto baseline(Unit&& unit) const {
    return util::parallel_map(jobs_, size(), unit);
  }

  /// unit(cell, s) for every (cell, session); the result for (cell, s) is at
  /// [cell * size() + s].
  template <class Unit>
  auto cells(std::size_t n_cells, Unit&& unit) const {
    const std::size_t n = size();
    return util::parallel_map(jobs_, n_cells * n,
                              [&](std::size_t item) { return unit(item / n, item % n); });
  }

 private:
  std::vector<trace::SessionTraces> sessions_;
  std::vector<media::VideoManifest> manifests_;
  std::vector<player::PlayerSimulator> simulators_;
  std::vector<sensors::VibrationTrack> tracks_;
  qoe::QoeModel qoe_model_;
  power::PowerModel power_model_;
  std::size_t jobs_;
};

}  // namespace eacs::sim
