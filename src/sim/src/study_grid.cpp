#include "eacs/sim/study_grid.h"

#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>

#include "eacs/abr/bba.h"
#include "eacs/abr/bola.h"
#include "eacs/abr/festive.h"
#include "eacs/abr/fixed.h"
#include "eacs/core/online.h"

namespace eacs::sim {

StudyGrid::StudyGrid(const Evaluation& evaluation,
                     std::span<const trace::SessionTraces> sessions)
    : config_(evaluation.config()),
      sessions_(sessions),
      qoe_model_(config_.qoe),
      power_model_(config_.power),
      replayers_(baseline([&](std::size_t s) {
        return std::optional<Replayer>(
            std::in_place,
            player::PlayerSimulator(evaluation.manifest_for(sessions_[s].spec),
                                    config_.player),
            sensors::VibrationTrack(sessions_[s].accel, config_.player.vibration));
      })) {}

void StudyGrid::check_axis(std::string_view study, std::span<const double> axis) {
  if (axis.empty()) {
    throw std::invalid_argument(std::string(study) + ": empty sweep axis");
  }
  for (const double value : axis) {
    if (!(std::isfinite(value) && value >= 0.0)) {
      throw std::invalid_argument(std::string(study) +
                                  ": axis values must be finite and >= 0");
    }
  }
}

SessionMetrics StudyGrid::metrics(std::size_t s, const player::AbrPolicy& policy,
                                  const player::PlaybackResult& playback) const {
  return compute_metrics(policy.name(), sessions_[s].spec.id, playback,
                         manifest(s), qoe_model_, power_model_);
}

core::OptimalPlan StudyGrid::optimal_plan(std::size_t s,
                                          const core::Objective& objective) const {
  return core::OptimalPlanner(objective).plan(
      core::build_task_environments(manifest(s), session(s), track(s)));
}

std::vector<SessionMetrics> StudyGrid::lineup(std::size_t s,
                                              const core::Objective& objective,
                                              const core::OptimalPlan& plan,
                                              const net::FaultInjector* faults) const {
  abr::FixedBitrate youtube;
  abr::Festive festive;
  abr::Bba bba(5.0, config_.player.buffer_threshold_s);
  core::OnlineBitrateSelector ours(
      objective,
      {.startup_level = config_.online_startup_level,
       .cache = config_.online_cache
                    ? std::make_shared<core::DecisionCache>(*config_.online_cache)
                    : nullptr});
  core::PlannedPolicy optimal(plan);
  abr::Bola bola(5.0, config_.player.buffer_threshold_s);

  std::vector<player::AbrPolicy*> policies = {&youtube, &festive, &bba, &ours,
                                              &optimal};
  if (config_.include_bola) policies.push_back(&bola);

  std::vector<SessionMetrics> rows;
  rows.reserve(policies.size());
  for (player::AbrPolicy* policy : policies) {
    rows.push_back(metrics(s, *policy,
                           faults ? replay(s, *policy, *faults) : replay(s, *policy)));
  }
  return rows;
}

}  // namespace eacs::sim
