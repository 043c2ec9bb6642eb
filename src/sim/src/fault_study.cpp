#include "eacs/sim/fault_study.h"

#include <cmath>
#include <map>
#include <stdexcept>

#include "eacs/net/fault_injector.h"
#include "eacs/sim/seed_mix.h"
#include "eacs/sim/study_grid.h"

namespace eacs::sim {

const FaultCell& FaultStudyResult::cell(const std::string& algorithm,
                                        double outage_rate_per_min,
                                        double failure_prob) const {
  for (const auto& c : cells) {
    if (c.algorithm == algorithm &&
        std::fabs(c.outage_rate_per_min - outage_rate_per_min) < 1e-12 &&
        std::fabs(c.failure_prob - failure_prob) < 1e-12) {
      return c;
    }
  }
  throw std::out_of_range("FaultStudyResult: no cell for " + algorithm);
}

FaultStudyResult run_fault_study(const FaultStudyConfig& config) {
  StudyGrid::check_axis("run_fault_study", config.outage_rates_per_min);
  StudyGrid::check_axis("run_fault_study", config.failure_probs);

  const Evaluation evaluation(config.evaluation);
  const auto sessions = trace::build_all_sessions(config.evaluation.session_options);
  const StudyGrid grid(evaluation, sessions);
  const core::Objective objective = make_objective(config.evaluation);
  const auto plans = grid.baseline(
      [&](std::size_t s) { return grid.optimal_plan(s, objective); });

  // Serial reduction: the accumulation order (sessions outer, policies
  // inner) is fixed regardless of how the units above were scheduled, so
  // the floating-point sums are bit-identical at any job count.
  const auto accumulate = [&](std::map<std::string, FaultCell>& cells,
                              const std::vector<SessionMetrics>& metrics) {
    for (const auto& m : metrics) {
      FaultCell& cell = cells[m.algorithm];
      cell.algorithm = m.algorithm;
      cell.mean_qoe += m.mean_qoe / static_cast<double>(grid.size());
      cell.total_energy_j += m.total_energy_j;
      cell.wasted_energy_j += m.wasted_energy_j;
      cell.rebuffer_s += m.rebuffer_s;
      cell.retries += m.retries;
      cell.abandoned_segments += m.abandoned_segments;
    }
  };

  // Fault-free baseline per algorithm: the reference every cell's deltas
  // are taken against.
  std::map<std::string, FaultCell> baseline;
  const auto clean_metrics = grid.baseline(
      [&](std::size_t s) { return grid.lineup(s, objective, plans[s]); });
  for (const auto& metrics : clean_metrics) accumulate(baseline, metrics);

  // The grid: each unit's fault seed is a pure function of (config.seed,
  // grid index, session id), so the whole table is reproducible at any job
  // count.
  const std::size_t n_probs = config.failure_probs.size();
  const auto cell_metrics = grid.cells(
      config.outage_rates_per_min.size() * n_probs,
      [&](std::size_t grid_index, std::size_t s) {
        const auto& session = grid.session(s);
        net::FaultSpec spec;
        spec.outage_rate_per_min = config.outage_rates_per_min[grid_index / n_probs];
        spec.outage_mean_s = config.outage_mean_s;
        spec.failure_prob = config.failure_probs[grid_index % n_probs];
        if (spec.failure_prob > 0.0) {
          spec.signal_failure_per_db = config.signal_failure_per_db;
          spec.signal_threshold_dbm = config.signal_threshold_dbm;
        }
        spec.seed = seed_mix(config.seed, grid_index, session.spec.id);
        const net::FaultInjector faults(session.throughput_mbps, spec,
                                        &session.signal_dbm);
        return grid.lineup(s, objective, plans[s], &faults);
      });

  FaultStudyResult result;
  std::size_t grid_index = 0;
  for (const double outage_rate : config.outage_rates_per_min) {
    for (const double failure_prob : config.failure_probs) {
      std::map<std::string, FaultCell> per_algorithm;
      for (std::size_t s = 0; s < grid.size(); ++s) {
        accumulate(per_algorithm, cell_metrics[grid_index * grid.size() + s]);
      }

      for (auto& [name, cell] : per_algorithm) {
        cell.outage_rate_per_min = outage_rate;
        cell.failure_prob = failure_prob;
        const FaultCell& base = baseline.at(name);
        cell.qoe_delta = cell.mean_qoe - base.mean_qoe;
        cell.energy_delta_j = cell.total_energy_j - base.total_energy_j;
        cell.rebuffer_delta_s = cell.rebuffer_s - base.rebuffer_s;
        result.cells.push_back(cell);
      }
      ++grid_index;
    }
  }
  return result;
}

}  // namespace eacs::sim
