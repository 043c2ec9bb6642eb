#include "eacs/sim/sensor_fault_study.h"

#include <cmath>
#include <stdexcept>

#include "eacs/abr/bba.h"
#include "eacs/core/online.h"
#include "eacs/sensors/sensor_faults.h"
#include "eacs/sim/seed_mix.h"
#include "eacs/util/thread_pool.h"

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
  if (config.intensities.empty()) {
    throw std::invalid_argument("run_sensor_fault_study: empty intensity axis");
  }
  for (const double intensity : config.intensities) {
    if (!(std::isfinite(intensity) && intensity >= 0.0)) {
      throw std::invalid_argument(
          "run_sensor_fault_study: intensities must be finite and >= 0");
    }
  }
  const auto scenarios = config.scenarios.empty() ? all_sensor_fault_scenarios()
                                                  : config.scenarios;

  const Evaluation evaluation(config.evaluation);
  const core::Objective objective = make_objective(config.evaluation);
  const qoe::QoeModel& qoe_model = objective.qoe_model();
  const power::PowerModel& power_model = objective.power_model();

  const auto sessions = trace::build_all_sessions(config.evaluation.session_options);
  std::vector<media::VideoManifest> manifests;
  std::vector<player::PlayerSimulator> simulators;
  std::vector<sensors::VibrationTrack> tracks;  // true vibration, per session
  std::vector<std::vector<sensors::SignalSample>> signal_streams;
  manifests.reserve(sessions.size());
  simulators.reserve(sessions.size());
  tracks.reserve(sessions.size());
  signal_streams.reserve(sessions.size());
  for (const auto& session : sessions) {
    manifests.push_back(evaluation.manifest_for(session.spec));
    simulators.emplace_back(manifests.back(), config.evaluation.player);
    tracks.emplace_back(session.accel, config.evaluation.player.vibration);
    signal_streams.push_back(trace::signal_samples(session.signal_dbm));
  }

  struct UnitResult {
    SessionMetrics metrics;
    double context_error_sum = 0.0;
    std::size_t tasks = 0;
  };

  // One unit: degraded-context Ours over one session. A null injector runs
  // the clean baseline instead.
  const auto run_ours = [&](std::size_t s,
                            const sensors::SensorFaultInjector* faults) {
    const auto& session = sessions[s];
    core::OnlineBitrateSelector ours(
        objective, {.startup_level = config.evaluation.online_startup_level,
                    .cache = nullptr});
    const auto playback =
        faults != nullptr
            ? simulators[s].run(ours, session, *faults, nullptr, &tracks[s])
            : simulators[s].run(ours, session, nullptr, &tracks[s]);
    UnitResult unit;
    unit.metrics = compute_metrics(ours.name(), session.spec.id, playback,
                                   manifests[s], qoe_model, power_model);
    for (const auto& task : playback.tasks) {
      unit.context_error_sum += std::fabs(task.perceived_vibration - task.vibration);
    }
    unit.tasks = playback.tasks.size();
    return unit;
  };

  const auto accumulate_baseline = [&](SensorFaultBaseline& base,
                                       const SessionMetrics& m) {
    base.algorithm = m.algorithm;
    base.mean_qoe += m.mean_qoe / static_cast<double>(sessions.size());
    base.total_energy_j += m.total_energy_j;
    base.rebuffer_s += m.rebuffer_s;
    base.mean_bitrate_mbps +=
        m.mean_bitrate_mbps / static_cast<double>(sessions.size());
  };

  const std::size_t jobs = config.evaluation.exec.resolved_jobs();
  const std::size_t n_sessions = sessions.size();
  const std::size_t n_cells = scenarios.size() * config.intensities.size();

  // Baselines: clean-context Ours and the context-blind reference (BBA reads
  // no vibration/signal, so sensor faults cannot touch it).
  const auto clean_units = util::parallel_map(
      jobs, n_sessions, [&](std::size_t s) { return run_ours(s, nullptr); });
  const auto blind_metrics =
      util::parallel_map(jobs, n_sessions, [&](std::size_t s) {
        const auto& session = sessions[s];
        abr::Bba bba(5.0, config.evaluation.player.buffer_threshold_s);
        const auto playback =
            simulators[s].run(bba, session, nullptr, &tracks[s]);
        return compute_metrics(bba.name(), session.spec.id, playback,
                               manifests[s], qoe_model, power_model);
      });

  SensorFaultStudyResult result;
  for (const auto& unit : clean_units) {
    accumulate_baseline(result.clean_ours, unit.metrics);
  }
  for (const auto& m : blind_metrics) accumulate_baseline(result.context_blind, m);

  // The grid, flattened to (grid point, session) units; each unit builds its
  // own injector from a seed pure in (config.seed, grid index, session id).
  const auto cell_units =
      util::parallel_map(jobs, n_cells * n_sessions, [&](std::size_t item) {
        const std::size_t grid_index = item / n_sessions;
        const std::size_t s = item % n_sessions;
        const auto scenario = scenarios[grid_index / config.intensities.size()];
        const double intensity =
            config.intensities[grid_index % config.intensities.size()];
        const auto& session = sessions[s];

        const double accel_horizon =
            session.accel.empty() ? 0.0 : session.accel.back().t_s;
        const auto spec = build_spec(
            config, scenario, intensity, accel_horizon,
            session.signal_dbm.empty() ? 0.0 : session.signal_dbm.end_time(),
            seed_mix(config.seed, grid_index, session.spec.id));
        const sensors::SensorFaultInjector faults(session.accel,
                                                  signal_streams[s], spec);
        return run_ours(s, &faults);
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
      for (std::size_t s = 0; s < n_sessions; ++s) {
        const auto& unit = cell_units[grid_index * n_sessions + s];
        cell.mean_qoe += unit.metrics.mean_qoe / static_cast<double>(n_sessions);
        cell.total_energy_j += unit.metrics.total_energy_j;
        cell.rebuffer_s += unit.metrics.rebuffer_s;
        cell.mean_bitrate_mbps +=
            unit.metrics.mean_bitrate_mbps / static_cast<double>(n_sessions);
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
