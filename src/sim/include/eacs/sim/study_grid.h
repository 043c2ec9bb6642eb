#pragma once
// The one trace-replay harness: the Section V evaluation (evaluation.h) and
// the link, sensor and CDN fault studies (fault_study.h,
// sensor_fault_study.h, cdn_fault_study.h) all run on it.
//
// Each caller replays a set of sessions once per baseline and, for a study,
// once per (grid cell, session) of its sweep. StudyGrid owns what they
// share: the axis check, the per-session state (simulators and vibration
// tracks, built once, in parallel), the paper's algorithm line-up, metric
// accounting, and the two fan-outs. A caller keeps only its spec builder,
// its unit function and its serial reduction. Units must stay pure in their
// index (DESIGN §6): a unit that needs a seed derives it with seed_mix from
// its own cell and session.

#include <cstddef>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "eacs/core/optimal.h"
#include "eacs/net/fault_injector.h"
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
  /// Borrows `evaluation` and `sessions`, which must outlive the grid, and
  /// builds each session's simulator (the evaluation's manifest under its
  /// player config) and vibration track, fanned out under its jobs.
  StudyGrid(const Evaluation& evaluation,
            std::span<const trace::SessionTraces> sessions);

  /// Throws std::invalid_argument, naming `study`, on an empty axis or a
  /// non-finite or negative value.
  static void check_axis(std::string_view study, std::span<const double> axis);

  std::size_t size() const noexcept { return sessions_.size(); }
  const trace::SessionTraces& session(std::size_t s) const { return sessions_[s]; }
  const media::VideoManifest& manifest(std::size_t s) const {
    return replayers_[s]->simulator.manifest();
  }
  const sensors::VibrationTrack& track(std::size_t s) const {
    return replayers_[s]->track;
  }

  /// Replays session `s` with `policy` over the clean link, or over `link`
  /// (a net::FaultInjector, a sensors::SensorFaultInjector or a span of
  /// net::SegmentSource), sharing the session's vibration track.
  template <class... Link>
  player::PlaybackResult replay(std::size_t s, player::AbrPolicy& policy,
                                const Link&... link) const {
    const Replayer& r = *replayers_[s];
    return r.simulator.run(policy, sessions_[s], link..., nullptr, &r.track);
  }

  /// compute_metrics under the evaluation's QoE and power models.
  SessionMetrics metrics(std::size_t s, const player::AbrPolicy& policy,
                         const player::PlaybackResult& playback) const;

  /// The Optimal plan for session `s` under `objective`, from its track.
  core::OptimalPlan optimal_plan(std::size_t s,
                                 const core::Objective& objective) const;

  /// The paper's line-up over session `s`, fresh instances replayed on the
  /// clean link or through `faults`: YouTube, FESTIVE, BBA, Ours (with a
  /// fresh `online_cache` when configured), Optimal over `plan`, then BOLA
  /// when `include_bola`. Metrics come back in that order.
  std::vector<SessionMetrics> lineup(std::size_t s, const core::Objective& objective,
                                     const core::OptimalPlan& plan,
                                     const net::FaultInjector* faults = nullptr) const;

  /// unit(s) for every session, in session order.
  template <class Unit>
  auto baseline(Unit&& unit) const {
    return util::parallel_map(config_.exec.resolved_jobs(), size(), unit);
  }

  /// unit(cell, s) for every (cell, session); the result for (cell, s) is at
  /// [cell * size() + s].
  template <class Unit>
  auto cells(std::size_t n_cells, Unit&& unit) const {
    const std::size_t n = size();
    return util::parallel_map(config_.exec.resolved_jobs(), n_cells * n,
                              [&](std::size_t item) { return unit(item / n, item % n); });
  }

 private:
  struct Replayer {
    player::PlayerSimulator simulator;
    sensors::VibrationTrack track;
  };

  const EvaluationConfig& config_;
  std::span<const trace::SessionTraces> sessions_;
  qoe::QoeModel qoe_model_;
  power::PowerModel power_model_;
  /// Optional only because parallel_map's slots are default-constructed.
  std::vector<std::optional<Replayer>> replayers_;
};

}  // namespace eacs::sim
