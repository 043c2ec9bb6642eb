#include "eacs/sim/sensor_fault_study.h"

#include <cmath>
#include <stdexcept>

#include "eacs/abr/bba.h"
#include "eacs/core/online.h"
#include "eacs/sensors/sensor_faults.h"
#include "eacs/sim/seed_mix.h"
#include "eacs/sim/study_grid.h"

namespace eacs::sim {
namespace {

/// Periodic scripted episodes of `type` covering fraction `intensity` of
/// [0, horizon): episodes of `episode_s` every episode_s/intensity seconds.
/// Intensity >= 1 collapses to one contiguous episode over the whole stream.
std::vector<sensors::SensorFaultEpisode> periodic_episodes(
    sensors::SensorFaultType type, double intensity, double episode_s,
    double horizon_s) {
  std::vector<sensors::SensorFaultEpisode> episodes;
  if (horizon_s <= 0.0 || intensity <= 0.0) return episodes;
  if (intensity >= 1.0) {
    episodes.push_back({type, 0.0, horizon_s});
    return episodes;
  }
  const double period = episode_s / intensity;
  for (double t = 0.0; t < horizon_s; t += period) {
    episodes.push_back({type, t, std::min(t + episode_s, horizon_s)});
  }
  return episodes;
}

sensors::SensorFaultSpec build_spec(const SensorFaultStudyConfig& config,
                                    SensorFaultScenario scenario,
                                    double intensity, double accel_horizon_s,
                                    double signal_horizon_s,
                                    std::uint64_t seed) {
  sensors::SensorFaultSpec spec;
  spec.seed = seed;
  const auto accel_scenario = [&](sensors::SensorFaultType type) {
    spec.accel_episodes = periodic_episodes(type, intensity,
                                            config.episode_length_s,
                                            accel_horizon_s);
  };
  switch (scenario) {
    case SensorFaultScenario::kDropout:
      accel_scenario(sensors::SensorFaultType::kDropout);
      break;
    case SensorFaultScenario::kStuckAt:
      accel_scenario(sensors::SensorFaultType::kStuckAt);
      break;
    case SensorFaultScenario::kNoiseBurst:
      accel_scenario(sensors::SensorFaultType::kNoiseBurst);
      break;
    case SensorFaultScenario::kSaturation:
      accel_scenario(sensors::SensorFaultType::kSaturation);
      break;
    case SensorFaultScenario::kNanCorruption:
      accel_scenario(sensors::SensorFaultType::kNanCorruption);
      break;
    case SensorFaultScenario::kRateCollapse:
      accel_scenario(sensors::SensorFaultType::kRateCollapse);
      break;
    case SensorFaultScenario::kSignalDropout:
      spec.signal_episodes =
          periodic_episodes(sensors::SensorFaultType::kDropout, intensity,
                            config.episode_length_s, signal_horizon_s);
      break;
    case SensorFaultScenario::kCombined:
      spec.accel_episode_rate_per_min =
          config.combined_accel_rate_per_min * intensity;
      spec.signal_dropout_rate_per_min =
          config.combined_signal_rate_per_min * intensity;
      break;
  }
  return spec;
}

}  // namespace

const char* to_string(SensorFaultScenario scenario) noexcept {
  switch (scenario) {
    case SensorFaultScenario::kDropout: return "dropout";
    case SensorFaultScenario::kStuckAt: return "stuck_at";
    case SensorFaultScenario::kNoiseBurst: return "noise_burst";
    case SensorFaultScenario::kSaturation: return "saturation";
    case SensorFaultScenario::kNanCorruption: return "nan_corruption";
    case SensorFaultScenario::kRateCollapse: return "rate_collapse";
    case SensorFaultScenario::kSignalDropout: return "signal_dropout";
    case SensorFaultScenario::kCombined: return "combined";
  }
  return "unknown";
}

std::vector<SensorFaultScenario> all_sensor_fault_scenarios() {
  return {SensorFaultScenario::kDropout,       SensorFaultScenario::kStuckAt,
          SensorFaultScenario::kNoiseBurst,    SensorFaultScenario::kSaturation,
          SensorFaultScenario::kNanCorruption, SensorFaultScenario::kRateCollapse,
          SensorFaultScenario::kSignalDropout, SensorFaultScenario::kCombined};
}

const SensorFaultCell& SensorFaultStudyResult::cell(
    SensorFaultScenario scenario, double intensity) const {
  for (const auto& c : cells) {
    if (c.scenario == scenario && std::fabs(c.intensity - intensity) < 1e-12) {
      return c;
    }
  }
  throw std::out_of_range(std::string("SensorFaultStudyResult: no cell for ") +
                          to_string(scenario));
}

SensorFaultStudyResult run_sensor_fault_study(
    const SensorFaultStudyConfig& config) {
  StudyGrid::check_axis("run_sensor_fault_study", config.intensities);
  if (!(std::isfinite(config.episode_length_s) && config.episode_length_s > 0.0)) {
    throw std::invalid_argument(
        "run_sensor_fault_study: episode_length_s must be finite and > 0");
  }
  for (const double rate : {config.combined_accel_rate_per_min,
                            config.combined_signal_rate_per_min}) {
    if (!(std::isfinite(rate) && rate >= 0.0)) {
      throw std::invalid_argument(
          "run_sensor_fault_study: combined rates must be finite and >= 0");
    }
  }
  const auto scenarios = config.scenarios.empty() ? all_sensor_fault_scenarios()
                                                  : config.scenarios;

  const Evaluation evaluation(config.evaluation);
  const auto sessions = trace::build_all_sessions(config.evaluation.session_options);
  const StudyGrid grid(evaluation, sessions);
  const core::Objective objective = make_objective(config.evaluation);

  struct UnitResult {
    SessionMetrics metrics;
    double context_error_sum = 0.0;
    std::size_t tasks = 0;
  };

  // One unit: Ours over one session, clean or with the given sensor-fault
  // injector corrupting what it perceives.
  const auto run_ours = [&](std::size_t s, const auto&... faults) {
    core::OnlineBitrateSelector ours(
        objective, {.startup_level = config.evaluation.online_startup_level});
    const auto playback = grid.replay(s, ours, faults...);
    UnitResult unit;
    unit.metrics = grid.metrics(s, ours, playback);
    for (const auto& task : playback.tasks) {
      unit.context_error_sum += std::fabs(task.perceived_vibration - task.vibration);
    }
    unit.tasks = playback.tasks.size();
    return unit;
  };

  const auto accumulate_baseline = [&](SensorFaultBaseline& base,
                                       const SessionMetrics& m) {
    base.algorithm = m.algorithm;
    base.mean_qoe += m.mean_qoe / static_cast<double>(grid.size());
    base.total_energy_j += m.total_energy_j;
    base.rebuffer_s += m.rebuffer_s;
    base.mean_bitrate_mbps +=
        m.mean_bitrate_mbps / static_cast<double>(grid.size());
  };

  // Baselines: clean-context Ours and the context-blind reference (BBA reads
  // no vibration/signal, so sensor faults cannot touch it).
  const auto clean_units = grid.baseline(run_ours);
  const auto blind_metrics = grid.baseline([&](std::size_t s) {
    abr::Bba bba(5.0, config.evaluation.player.buffer_threshold_s);
    return grid.metrics(s, bba, grid.replay(s, bba));
  });

  SensorFaultStudyResult result;
  for (const auto& unit : clean_units) {
    accumulate_baseline(result.clean_ours, unit.metrics);
  }
  for (const auto& m : blind_metrics) accumulate_baseline(result.context_blind, m);

  // The grid: each unit builds its own injector from a seed pure in
  // (config.seed, grid index, session id).
  const std::size_t n_intensities = config.intensities.size();
  const auto cell_units = grid.cells(
      scenarios.size() * n_intensities, [&](std::size_t grid_index, std::size_t s) {
        const auto& session = grid.session(s);
        const auto spec = build_spec(
            config, scenarios[grid_index / n_intensities],
            config.intensities[grid_index % n_intensities],
            session.accel.empty() ? 0.0 : session.accel.back().t_s,
            session.signal_dbm.empty() ? 0.0 : session.signal_dbm.end_time(),
            seed_mix(config.seed, grid_index, session.spec.id));
        return run_ours(s, sensors::SensorFaultInjector(
                               session.accel, trace::signal_samples(session.signal_dbm),
                               spec));
      });

  // Serial reduction in grid order: bit-identical at any job count.
  std::size_t grid_index = 0;
  for (const auto scenario : scenarios) {
    for (const double intensity : config.intensities) {
      SensorFaultCell cell;
      cell.scenario = scenario;
      cell.intensity = intensity;
      double error_sum = 0.0;
      std::size_t task_count = 0;
      for (std::size_t s = 0; s < grid.size(); ++s) {
        const auto& unit = cell_units[grid_index * grid.size() + s];
        cell.mean_qoe += unit.metrics.mean_qoe / static_cast<double>(grid.size());
        cell.total_energy_j += unit.metrics.total_energy_j;
        cell.rebuffer_s += unit.metrics.rebuffer_s;
        cell.mean_bitrate_mbps +=
            unit.metrics.mean_bitrate_mbps / static_cast<double>(grid.size());
        error_sum += unit.context_error_sum;
        task_count += unit.tasks;
      }
      cell.mean_context_error =
          task_count > 0 ? error_sum / static_cast<double>(task_count) : 0.0;
      cell.qoe_delta_vs_clean = cell.mean_qoe - result.clean_ours.mean_qoe;
      cell.energy_delta_vs_clean_j =
          cell.total_energy_j - result.clean_ours.total_energy_j;
      cell.rebuffer_delta_vs_clean_s =
          cell.rebuffer_s - result.clean_ours.rebuffer_s;
      cell.qoe_delta_vs_blind = cell.mean_qoe - result.context_blind.mean_qoe;
      cell.energy_delta_vs_blind_j =
          cell.total_energy_j - result.context_blind.total_energy_j;
      result.cells.push_back(cell);
      ++grid_index;
    }
  }
  return result;
}

}  // namespace eacs::sim
