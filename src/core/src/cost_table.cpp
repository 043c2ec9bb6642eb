#include "eacs/core/cost_table.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "eacs/core/cost_stats.h"

namespace eacs::core {

TaskCostTable::TaskCostTable(const Objective& objective,
                             const TaskEnvironment& env, double buffer_s,
                             const TaskCostTable* previous)
    : TaskCostTable(LevelsOnly{}, objective, env, buffer_s, previous) {
  const std::size_t m = rungs_.size();
  // A predecessor with a matrix and the same rungs at every level (same QoE
  // model, equal bitrates, hence equal q0) holds exactly the matrix this
  // table would build.
  bool borrow = previous != nullptr && previous->switches_ != nullptr &&
                previous->rungs_.size() == m &&
                previous->qoe_params_ == qoe_params_;
  for (std::size_t level = 0; borrow && level < m; ++level) {
    borrow = previous->rungs_[level].bitrate_mbps == rungs_[level].bitrate_mbps;
  }
  if (borrow) {
    switches_ = previous->switches_;
    return;
  }
  // switch_impairment, per (level, prev_level): it guards on the *previous*
  // bitrate only.
  std::shared_ptr<double[]> switches = std::make_shared<double[]>(m * m);
  for (std::size_t level = 0; level < m; ++level) {
    for (std::size_t prev = 0; prev < m; ++prev) {
      switches[level * m + prev] =
          rungs_[prev].bitrate_mbps <= 0.0
              ? 0.0
              : qoe_params_.switch_penalty *
                    std::fabs(rungs_[level].original - rungs_[prev].original);
    }
  }
  switches_ = std::move(switches);
}

TaskCostTable::TaskCostTable(LevelsOnly, const Objective& objective,
                             const TaskEnvironment& env, double buffer_s,
                             const TaskCostTable* previous) {
  if (env.size_megabits.empty()) {
    throw std::invalid_argument(
        "TaskCostTable: empty bitrate ladder (no candidate sizes)");
  }
  const std::size_t m = env.size_megabits.size();
  const qoe::QoeModel& qoe = objective.qoe_model();
  const ObjectiveConfig& config = objective.config();

  qoe_params_ = qoe.params();
  alpha_ = config.alpha;
  one_minus_alpha_ = 1.0 - config.alpha;

  energy_.resize(m);
  e_term_.resize(m);
  e_cost_.resize(m);
  quality_base_.resize(m);
  rungs_.resize(m);
  rebuffer_s_.resize(m);
  rebuffer_impair_.resize(m);

  // The task's context terms, once per table: the vibration input task_qoe
  // builds (context_aware ablation) as its factor of I(v, r), and the radio
  // energy per MB at the task's signal.
  const double vibration = config.context_aware ? env.vibration : 0.0;
  const double vibration_factor = qoe.vibration_factor(vibration);
  const double energy_per_mb =
      objective.power_model().energy_per_mb(env.signal_dbm);
  // A neighbouring table of the same QoE model lends its rung terms to every
  // level whose bitrate is equal to this one's: same inputs, same bits.
  const bool chained = previous != nullptr && previous->rungs_.size() == m &&
                       previous->qoe_params_ == qoe_params_;
  CostStats* stats = CostStatsScope::current();
  for (std::size_t level = 0; level < m; ++level) {
    // task_energy's model call (counted inside task_energy).
    energy_[level] = objective.task_energy(env, level, buffer_s, energy_per_mb);
    // task_qoe's subexpressions: bitrate, q0 - I(v, r), rebuffer.
    const double size_megabits = env.size_megabits[level];
    const double bitrate = size_megabits / std::max(1e-9, env.duration_s);
    rungs_[level] = chained && previous->rungs_[level].bitrate_mbps == bitrate
                        ? previous->rungs_[level]
                        : qoe.rung(bitrate);
    quality_base_[level] = rungs_[level].original -
                           qoe.vibration_impairment(rungs_[level], vibration_factor);
    rebuffer_s_[level] =
        objective.expected_rebuffer_s(size_megabits, env.bandwidth_mbps, buffer_s);
    rebuffer_impair_[level] =
        qoe_params_.rebuffer_penalty_per_s * std::max(0.0, rebuffer_s_[level]);
    if (stats) ++stats->qoe_model_evals;  // q0 + I together = one segment eval
  }

  // task_cost's normalisers: energy at the top rung with the same buffer
  // (bitwise the energy_[m-1] just computed — same call, same arguments),
  // and task_qoe of the top rung with no switch context at the config
  // threshold, from the terms already at hand.
  energy_max_ = energy_[m - 1];
  if (stats) ++stats->qoe_model_evals;
  quality_max_ = qoe.segment_qoe(
      rungs_[m - 1], nullptr, vibration_factor,
      objective.expected_rebuffer_s(env.size_megabits[m - 1], env.bandwidth_mbps,
                                    config.buffer_threshold_s));

  for (std::size_t level = 0; level < m; ++level) {
    e_term_[level] = energy_max_ > 0.0 ? energy_[level] / energy_max_ : 0.0;
    e_cost_[level] = alpha_ * e_term_[level];
  }
  if (stats) ++stats->tables_built;
}

void TaskCostTable::reweight(double alpha) noexcept {
  alpha_ = alpha;
  one_minus_alpha_ = 1.0 - alpha;
  for (std::size_t level = 0; level < e_term_.size(); ++level) {
    e_cost_[level] = alpha_ * e_term_[level];
  }
}

std::vector<TaskCostTable> build_cost_tables(
    const Objective& objective, std::span<const TaskEnvironment> tasks,
    double buffer_s) {
  if (tasks.empty()) {
    throw std::invalid_argument("build_cost_tables: no tasks");
  }
  const std::size_t m = tasks.front().size_megabits.size();
  std::vector<TaskCostTable> tables;
  tables.reserve(tasks.size());
  for (const TaskEnvironment& env : tasks) {
    if (env.size_megabits.size() != m) {
      throw std::invalid_argument("build_cost_tables: ragged task ladder");
    }
    // Chained: each table borrows its predecessor's rung terms.
    tables.emplace_back(objective, env, buffer_s,
                        tables.empty() ? nullptr : &tables.back());
  }
  return tables;
}

}  // namespace eacs::core
