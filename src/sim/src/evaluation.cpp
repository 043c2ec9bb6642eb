#include "eacs/sim/evaluation.h"

#include <cmath>
#include <stdexcept>

#include "eacs/sim/study_grid.h"

namespace eacs::sim {
namespace {

/// Mean over `algorithm`'s sessions of 1 - field / reference's field, over
/// the sessions where the reference's field is positive (0 when none is).
double mean_relative_saving(const EvaluationResult& result,
                            const std::string& algorithm,
                            const std::string& reference,
                            double SessionMetrics::*field) {
  double total = 0.0;
  std::size_t count = 0;
  for (const auto& r : result.rows_for(algorithm)) {
    const double ref = result.row(reference, r.session_id).*field;
    if (ref > 0.0) {
      total += 1.0 - r.*field / ref;
      ++count;
    }
  }
  return count > 0 ? total / static_cast<double>(count) : 0.0;
}

}  // namespace

std::vector<SessionMetrics> EvaluationResult::rows_for(
    const std::string& algorithm) const {
  std::vector<SessionMetrics> out;
  for (const auto& r : rows) {
    if (r.algorithm == algorithm) out.push_back(r);
  }
  return out;
}

const SessionMetrics& EvaluationResult::row(const std::string& algorithm,
                                            int session_id) const {
  for (const auto& r : rows) {
    if (r.algorithm == algorithm && r.session_id == session_id) return r;
  }
  throw std::out_of_range("EvaluationResult: no row for " + algorithm + "/" +
                          std::to_string(session_id));
}

std::vector<std::string> EvaluationResult::algorithms() const {
  std::vector<std::string> names;
  for (const auto& r : rows) {
    bool seen = false;
    for (const auto& name : names) {
      if (name == r.algorithm) {
        seen = true;
        break;
      }
    }
    if (!seen) names.push_back(r.algorithm);
  }
  return names;
}

double EvaluationResult::mean_energy_saving(const std::string& algorithm,
                                            const std::string& reference) const {
  return mean_relative_saving(*this, algorithm, reference,
                              &SessionMetrics::total_energy_j);
}

double EvaluationResult::mean_extra_energy_saving(const std::string& algorithm,
                                                  const std::string& reference) const {
  return mean_relative_saving(*this, algorithm, reference,
                              &SessionMetrics::extra_energy_j);
}

double EvaluationResult::mean_qoe(const std::string& algorithm) const {
  const auto algo_rows = rows_for(algorithm);
  double total = 0.0;
  for (const auto& r : algo_rows) total += r.mean_qoe;
  return algo_rows.empty() ? 0.0 : total / static_cast<double>(algo_rows.size());
}

double EvaluationResult::mean_qoe_degradation(const std::string& algorithm,
                                              const std::string& reference) const {
  return mean_relative_saving(*this, algorithm, reference,
                              &SessionMetrics::mean_qoe);
}

double EvaluationResult::saving_degradation_ratio(const std::string& algorithm,
                                                  const std::string& reference) const {
  const double saving = mean_energy_saving(algorithm, reference);
  const double degradation = mean_qoe_degradation(algorithm, reference);
  if (degradation <= 0.0) return 0.0;
  return saving / degradation;
}

Evaluation::Evaluation(EvaluationConfig config) : config_(std::move(config)) {
  if (!(std::isfinite(config_.segment_duration_s) &&
        config_.segment_duration_s > 0.0)) {
    throw std::invalid_argument(
        "Evaluation: segment duration must be finite and > 0");
  }
}

media::VideoManifest Evaluation::manifest_for(const media::SessionSpec& spec) const {
  return media::VideoManifest("trace" + std::to_string(spec.id), spec.length_s,
                              config_.segment_duration_s,
                              media::BitrateLadder::evaluation14(),
                              media::VbrModel{config_.vbr_amplitude});
}

core::Objective make_objective(const EvaluationConfig& config) {
  core::ObjectiveConfig objective_config;
  objective_config.alpha = config.alpha;
  objective_config.buffer_threshold_s = config.player.buffer_threshold_s;
  objective_config.context_aware = config.context_aware;
  return core::Objective(qoe::QoeModel(config.qoe),
                         power::PowerModel(config.power), objective_config);
}

EvaluationResult Evaluation::run() const {
  return run(trace::build_all_sessions(config_.session_options));
}

EvaluationResult Evaluation::run(
    const std::vector<trace::SessionTraces>& sessions) const {
  const StudyGrid grid(*this, sessions);
  const core::Objective objective = make_objective(config_);
  const auto per_session = grid.baseline([&](std::size_t s) {
    return grid.lineup(s, objective, grid.optimal_plan(s, objective));
  });

  EvaluationResult result;
  for (const auto& rows : per_session) {
    result.rows.insert(result.rows.end(), rows.begin(), rows.end());
  }
  return result;
}

}  // namespace eacs::sim
