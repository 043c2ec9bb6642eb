#include "eacs/sim/fault_study.h"

#include <cmath>
#include <map>
#include <stdexcept>

#include "eacs/abr/bba.h"
#include "eacs/abr/festive.h"
#include "eacs/abr/fixed.h"
#include "eacs/core/online.h"
#include "eacs/core/optimal.h"
#include "eacs/net/fault_injector.h"
#include "eacs/sim/seed_mix.h"
#include "eacs/util/thread_pool.h"

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
  if (config.outage_rates_per_min.empty() || config.failure_probs.empty()) {
    throw std::invalid_argument("run_fault_study: empty sweep axes");
  }

  const Evaluation evaluation(config.evaluation);
  const core::Objective objective = make_objective(config.evaluation);
  const qoe::QoeModel& qoe_model = objective.qoe_model();
  const power::PowerModel& power_model = objective.power_model();

  // Sessions, manifests, simulators and optimal plans are built once and
  // shared across the whole grid.
  const auto sessions = trace::build_all_sessions(config.evaluation.session_options);
  std::vector<media::VideoManifest> manifests;
  std::vector<player::PlayerSimulator> simulators;
  std::vector<core::OptimalPlan> plans;
  manifests.reserve(sessions.size());
  simulators.reserve(sessions.size());
  plans.reserve(sessions.size());
  for (const auto& session : sessions) {
    manifests.push_back(evaluation.manifest_for(session.spec));
    simulators.emplace_back(manifests.back(), config.evaluation.player);
    core::OptimalPlanner planner(objective);
    plans.push_back(planner.plan(core::build_task_environments(manifests.back(), session)));
  }

  // One unit of work: replay every policy over one session (optionally
  // through a fault injector) and return the metrics in policy order. Fresh
  // policy instances per unit (the planner output is shared, read-only).
  const auto run_policies = [&](std::size_t s, const net::FaultInjector* faults) {
    const auto& session = sessions[s];
    abr::FixedBitrate youtube;
    abr::Festive festive;
    abr::Bba bba(5.0, config.evaluation.player.buffer_threshold_s);
    core::OnlineBitrateSelector ours(
        objective, {.startup_level = config.evaluation.online_startup_level});
    core::PlannedPolicy optimal(plans[s]);

    const std::vector<player::AbrPolicy*> policies = {&youtube, &festive, &bba,
                                                      &ours, &optimal};
    std::vector<SessionMetrics> metrics;
    metrics.reserve(policies.size());
    for (player::AbrPolicy* policy : policies) {
      const auto playback = faults != nullptr
                                ? simulators[s].run(*policy, session, *faults)
                                : simulators[s].run(*policy, session);
      metrics.push_back(compute_metrics(policy->name(), session.spec.id, playback,
                                        manifests[s], qoe_model, power_model));
    }
    return metrics;
  };

  // Serial reduction: the accumulation order (sessions outer, policies
  // inner) is fixed regardless of how the units above were scheduled, so
  // the floating-point sums are bit-identical at any job count.
  const auto accumulate = [&](std::map<std::string, FaultCell>& cells,
                              const std::vector<SessionMetrics>& metrics) {
    for (const auto& m : metrics) {
      FaultCell& cell = cells[m.algorithm];
      cell.algorithm = m.algorithm;
      cell.mean_qoe += m.mean_qoe / static_cast<double>(sessions.size());
      cell.total_energy_j += m.total_energy_j;
      cell.wasted_energy_j += m.wasted_energy_j;
      cell.rebuffer_s += m.rebuffer_s;
      cell.retries += m.retries;
      cell.abandoned_segments += m.abandoned_segments;
    }
  };

  const std::size_t jobs = config.evaluation.exec.resolved_jobs();
  const std::size_t n_sessions = sessions.size();
  const std::size_t n_cells =
      config.outage_rates_per_min.size() * config.failure_probs.size();

  // Fault-free baseline per algorithm: the reference every cell's deltas
  // are taken against.
  const auto baseline_metrics = util::parallel_map(
      jobs, n_sessions, [&](std::size_t s) { return run_policies(s, nullptr); });
  std::map<std::string, FaultCell> baseline;
  for (const auto& metrics : baseline_metrics) accumulate(baseline, metrics);

  // The grid, flattened to (grid cell, session) units. Each unit's fault
  // seed is a pure function of (config.seed, grid index, session id), so
  // the whole table is reproducible at any job count.
  const auto cell_metrics =
      util::parallel_map(jobs, n_cells * n_sessions, [&](std::size_t item) {
        const std::size_t grid_index = item / n_sessions;
        const std::size_t s = item % n_sessions;
        const double outage_rate =
            config.outage_rates_per_min[grid_index / config.failure_probs.size()];
        const double failure_prob =
            config.failure_probs[grid_index % config.failure_probs.size()];
        const auto& session = sessions[s];

        net::FaultSpec spec;
        spec.outage_rate_per_min = outage_rate;
        spec.outage_mean_s = config.outage_mean_s;
        spec.failure_prob = failure_prob;
        if (failure_prob > 0.0) {
          spec.signal_failure_per_db = config.signal_failure_per_db;
          spec.signal_threshold_dbm = config.signal_threshold_dbm;
        }
        spec.seed = seed_mix(config.seed, grid_index, session.spec.id);
        const net::FaultInjector faults(session.throughput_mbps, spec,
                                        &session.signal_dbm);
        return run_policies(s, &faults);
      });

  FaultStudyResult result;
  std::size_t grid_index = 0;
  for (const double outage_rate : config.outage_rates_per_min) {
    for (const double failure_prob : config.failure_probs) {
      std::map<std::string, FaultCell> per_algorithm;
      for (std::size_t s = 0; s < n_sessions; ++s) {
        accumulate(per_algorithm, cell_metrics[grid_index * n_sessions + s]);
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
