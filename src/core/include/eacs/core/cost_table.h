#pragma once
// Precomputed per-task cost tables — the planner hot path.
//
// Objective::task_cost prices one Fig. 4 edge with ~6 fresh model calls
// (two pow/exp-heavy QoE evaluations, two power evaluations and the
// normaliser lookups). The planners evaluate O(N*M^2) edges per plan, yet
// per task only O(M) quantities actually vary: the per-level energy, the
// original quality, the vibration impairment and the rebuffer estimate.
// A TaskCostTable precomputes those once per TaskEnvironment into flat
// contiguous (SoA) arrays, so an edge weight (j, j') reduces to a handful of
// adds/compares on cached doubles: O(N*M) model evaluations per plan instead
// of O(N*M^2).
//
// Within a table, only two model terms depend on the task's context: the
// vibration factor kappa * v^alpha of I(v, r) and the radio energy per MB
// e(s). Each is evaluated once per table. The rest of a level's QoE terms
// depend on its bitrate alone (qoe::RungQuality: q0(r) and r^beta); a
// table built with a `previous` table of the same QoE model copies those
// for every level whose bitrate equals the previous table's, and
// build_cost_tables chains each table on the one before. A CBR ladder thus
// prices its rungs once per plan; the short last segment, whose bitrate
// differs in the last bit, is priced afresh. The CostStats counters still
// count logical evaluations (2M+1 per table), not pow/exp calls.
//
// The switch term of an edge, gamma * |q0(r_j) - q0(r_j')| (0 when
// r_j' <= 0), depends on two rungs only. A table holds it as one M x M
// matrix, which a chained table whose rungs all match its predecessor's
// borrows rather than prices: a CBR ladder builds one matrix per plan (two
// with the short last segment). An edge is then a few loads, the clamp and
// the normaliser divide, all inline. The matrix is built for the tables a
// planner walks; Objective::reference_level, which reads only
// edge_cost(level), builds none.
//
// Bit-identity contract: the table replays the *exact* floating-point
// operations of Objective::task_cost — same subexpressions, same evaluation
// order, clamps applied per edge — so cached plans are bitwise equal to the
// uncached formulation. The hoisted factors keep that: (kappa * v^alpha) *
// r^beta is task_qoe's left-to-right product, energy_per_mb feeds the same
// multiply download_energy does, and a borrowed rung is the value
// QoeModel::rung returns for an equal bitrate. A chained table is bitwise
// equal to an unchained one, and a borrowed switch matrix holds the very
// doubles switch_impairment returns for the table's own rungs.
// tests/property/cost_table_properties_test.cpp
// asserts EXPECT_EQ on doubles for every consumer; do not "simplify" the
// arithmetic here without re-certifying.

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "eacs/core/objective.h"
#include "eacs/core/task.h"

namespace eacs::core {

/// Cached Eq. 11 edge-cost evaluator for one task environment.
class TaskCostTable {
 public:
  /// Precomputes all per-level components of task_cost(env, *, *, buffer_s).
  /// Performs M power-model and M+1 QoE-model evaluations; every edge_cost
  /// call afterwards performs none. `previous`, when given, lends its rung
  /// terms and, when every rung matches, its switch matrix (see above); the
  /// table is the same with or without it. Throws std::invalid_argument on
  /// an empty ladder.
  TaskCostTable(const Objective& objective, const TaskEnvironment& env,
                double buffer_s, const TaskCostTable* previous = nullptr);

  std::size_t num_levels() const noexcept { return energy_.size(); }

  /// Edge weight with no switch coupling (first task / reference level):
  /// bitwise equal to Objective::task_cost(env, level, std::nullopt, buffer_s).
  double edge_cost(std::size_t level) const noexcept {
    // Mirrors segment_qoe's subtraction chain: (q0 - vib) - switch(=0) - rebuf.
    double quality = quality_base_[level] - 0.0;
    quality -= rebuffer_impair_[level];
    return weigh(level, quality);
  }

  /// Edge weight with switch coupling: bitwise equal to
  /// Objective::task_cost(env, level, prev_level, buffer_s).
  double edge_cost(std::size_t level, std::size_t prev_level) const noexcept {
    double quality =
        quality_base_[level] - switches_[level * energy_.size() + prev_level];
    quality -= rebuffer_impair_[level];
    return weigh(level, quality);
  }

  /// Re-weights the alpha-dependent derived terms in place; the cached
  /// energy/QoE components are alpha-independent, so an alpha sweep (the
  /// Pareto front) builds tables once and re-weights per sample.
  void reweight(double alpha) noexcept;

  // Component accessors (certification tests and introspection).
  double energy(std::size_t level) const { return energy_.at(level); }
  double energy_max() const noexcept { return energy_max_; }
  double quality_base(std::size_t level) const { return quality_base_.at(level); }
  double original_quality(std::size_t level) const {
    return rungs_.at(level).original;
  }
  double rebuffer_s(std::size_t level) const { return rebuffer_s_.at(level); }
  double quality_max() const noexcept { return quality_max_; }
  double alpha() const noexcept { return alpha_; }

 private:
  friend class Objective;
  struct LevelsOnly {};

  /// Every per-level term, no switch matrix: for callers that read only
  /// edge_cost(level) (Objective::reference_level).
  TaskCostTable(LevelsOnly, const Objective& objective,
                const TaskEnvironment& env, double buffer_s,
                const TaskCostTable* previous);

  double weigh(std::size_t level, double quality) const noexcept {
    // segment_qoe's final clamp, then task_cost's weighted sum, verbatim.
    quality = std::clamp(quality, qoe_params_.mos_min, qoe_params_.mos_max);
    const double q_term = quality_max_ > 0.0 ? quality / quality_max_ : 0.0;
    return e_cost_[level] - one_minus_alpha_ * q_term;
  }

  // Per-level components (SoA, contiguous).
  std::vector<double> energy_;            ///< task_energy(env, j, buffer_s)
  std::vector<double> e_term_;            ///< energy[j]/energy_max (guarded)
  std::vector<double> e_cost_;            ///< alpha * e_term[j]
  std::vector<double> quality_base_;      ///< q0(r_j) - I(v, r_j)
  std::vector<qoe::RungQuality> rungs_;   ///< r_j, q0(r_j), r_j^beta
  std::vector<double> rebuffer_s_;        ///< expected stall at this level
  std::vector<double> rebuffer_impair_;   ///< mu * max(0, rebuffer_s[j])

  /// Switch matrix, row-major [j * M + j']: the switch impairment of level
  /// j after level j'. Shared along a chain of tables with equal rungs;
  /// null in a LevelsOnly table.
  std::shared_ptr<const double[]> switches_;

  // Per-task scalars.
  double energy_max_ = 0.0;    ///< task_energy at the top rung (normaliser)
  double quality_max_ = 0.0;   ///< top-rung QoE normaliser (Q(i,M))
  double alpha_ = 0.5;
  double one_minus_alpha_ = 0.5;
  qoe::QoeModelParams qoe_params_;  ///< the model the rungs were priced with
};

/// Builds one table per task, each chained on the one before. Throws
/// std::invalid_argument on empty tasks, an empty ladder, or a ragged
/// ladder (tasks with differing level counts).
/// Takes a span so callers can price a window of a larger task sequence
/// without copying (the rolling-horizon planner and the decision cache both
/// slice prebuilt windows).
std::vector<TaskCostTable> build_cost_tables(
    const Objective& objective, std::span<const TaskEnvironment> tasks,
    double buffer_s);

}  // namespace eacs::core
