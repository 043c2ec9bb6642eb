#include "eacs/sim/study_grid.h"

#include <cmath>
#include <stdexcept>
#include <string>

namespace eacs::sim {

StudyGrid::StudyGrid(const EvaluationConfig& evaluation,
                     const player::PlayerConfig& player)
    : sessions_(trace::build_all_sessions(evaluation.session_options)),
      qoe_model_(evaluation.qoe),
      power_model_(evaluation.power),
      jobs_(evaluation.exec.resolved_jobs()) {
  const Evaluation manifests(evaluation);
  manifests_.reserve(size());
  simulators_.reserve(size());
  tracks_.reserve(size());
  for (const auto& session : sessions_) {
    manifests_.push_back(manifests.manifest_for(session.spec));
    simulators_.emplace_back(manifests_.back(), player);
    tracks_.emplace_back(session.accel, player.vibration);
  }
}

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
                         manifests_[s], qoe_model_, power_model_);
}

}  // namespace eacs::sim
