#include "eacs/sim/cdn_fault_study.h"

#include <cmath>
#include <span>
#include <stdexcept>

#include "eacs/abr/bba.h"
#include "eacs/net/segment_source.h"
#include "eacs/sim/seed_mix.h"
#include "eacs/util/thread_pool.h"

namespace eacs::sim {
namespace {

/// Origin fault spec for one grid point: the family's knobs scaled linearly
/// by intensity. Per-source draws are decorrelated by source id inside
/// SegmentSource, so one seed per (grid point, session) suffices.
net::CdnFaultSpec origin_spec(const CdnFaultStudyConfig& config,
                              CdnFaultFamily family, double intensity,
                              std::uint64_t seed) {
  net::CdnFaultSpec spec;
  spec.seed = seed;
  const auto outage = [&](double scale) {
    spec.outage_rate_per_min = config.outage_rate_per_min * intensity * scale;
    spec.outage_mean_s = config.outage_mean_s;
  };
  const auto errors = [&](double scale) {
    spec.error_rate_per_min = config.error_rate_per_min * intensity * scale;
    spec.error_episode_mean_s = config.error_episode_mean_s;
  };
  const auto payload = [&](double scale) {
    spec.truncate_prob = config.truncate_prob * intensity * scale;
    spec.corrupt_prob = config.corrupt_prob * intensity * scale;
  };
  const auto slow = [&](double scale) {
    spec.slow_start_prob = config.slow_start_prob * intensity * scale;
    spec.slow_scale = config.slow_scale;
  };
  switch (family) {
    case CdnFaultFamily::kOriginOutage: outage(1.0); break;
    case CdnFaultFamily::kErrorBursts: errors(1.0); break;
    case CdnFaultFamily::kPayloadCorruption: payload(1.0); break;
    case CdnFaultFamily::kSlowStart: slow(1.0); break;
    case CdnFaultFamily::kCombined:
      outage(0.5);
      errors(0.5);
      payload(0.5);
      slow(0.5);
      break;
  }
  return spec;
}

}  // namespace

const char* to_string(CdnFaultFamily family) noexcept {
  switch (family) {
    case CdnFaultFamily::kOriginOutage: return "origin_outage";
    case CdnFaultFamily::kErrorBursts: return "error_bursts";
    case CdnFaultFamily::kPayloadCorruption: return "payload_corruption";
    case CdnFaultFamily::kSlowStart: return "slow_start";
    case CdnFaultFamily::kCombined: return "combined";
  }
  return "unknown";
}

std::vector<CdnFaultFamily> all_cdn_fault_families() {
  return {CdnFaultFamily::kOriginOutage, CdnFaultFamily::kErrorBursts,
          CdnFaultFamily::kPayloadCorruption, CdnFaultFamily::kSlowStart,
          CdnFaultFamily::kCombined};
}

const CdnFaultCell& CdnFaultStudyResult::cell(CdnFaultFamily family,
                                              double intensity,
                                              std::size_t sources) const {
  for (const auto& c : cells) {
    if (c.family == family && std::fabs(c.intensity - intensity) < 1e-12 &&
        c.sources == sources) {
      return c;
    }
  }
  throw std::out_of_range(std::string("CdnFaultStudyResult: no cell for ") +
                          to_string(family));
}

CdnFaultStudyResult run_cdn_fault_study(const CdnFaultStudyConfig& config) {
  if (config.intensities.empty() || config.source_counts.empty()) {
    throw std::invalid_argument("run_cdn_fault_study: empty sweep axes");
  }
  for (const std::size_t count : config.source_counts) {
    if (count == 0) {
      throw std::invalid_argument("run_cdn_fault_study: zero source count");
    }
  }
  for (const double intensity : config.intensities) {
    if (!(std::isfinite(intensity) && intensity >= 0.0)) {
      throw std::invalid_argument(
          "run_cdn_fault_study: intensities must be finite and >= 0");
    }
  }
  const auto families =
      config.families.empty() ? all_cdn_fault_families() : config.families;

  const Evaluation evaluation(config.evaluation);
  const qoe::QoeModel qoe_model(config.evaluation.qoe);
  const power::PowerModel power_model(config.evaluation.power);

  player::PlayerConfig player_config = config.evaluation.player;
  player_config.resilience.hedge_enabled = config.hedge_enabled;

  const auto sessions = trace::build_all_sessions(config.evaluation.session_options);
  std::vector<media::VideoManifest> manifests;
  std::vector<player::PlayerSimulator> simulators;
  std::vector<sensors::VibrationTrack> tracks;
  manifests.reserve(sessions.size());
  simulators.reserve(sessions.size());
  tracks.reserve(sessions.size());
  for (const auto& session : sessions) {
    manifests.push_back(evaluation.manifest_for(session.spec));
    simulators.emplace_back(manifests.back(), player_config);
    tracks.emplace_back(session.accel, player_config.vibration);
  }

  struct UnitResult {
    SessionMetrics metrics;
    std::size_t hedges = 0;
    std::size_t failovers = 0;
    std::size_t breaker_transitions = 0;
  };

  // One unit: the delivery policy (BBA — the study isolates delivery
  // robustness, not ABR choice) over one session through `count` sources.
  // A zero count runs the fault-free single-source reference.
  const auto run_unit = [&](std::size_t s, CdnFaultFamily family,
                            double intensity, std::size_t count,
                            std::uint64_t seed) {
    const auto& session = sessions[s];
    abr::Bba bba(5.0, config.evaluation.player.buffer_threshold_s);
    UnitResult unit;
    player::PlaybackResult playback;
    if (count == 0) {
      playback = simulators[s].run(bba, session, nullptr, &tracks[s]);
    } else {
      std::vector<net::SegmentSource> sources;
      sources.reserve(count);
      net::CdnSourceConfig origin;
      origin.name = "origin";
      origin.id = 0;
      origin.faults = origin_spec(config, family, intensity, seed);
      sources.emplace_back(session.throughput_mbps, origin, &session.signal_dbm);
      for (std::size_t k = 1; k < count; ++k) {
        net::CdnSourceConfig edge;
        edge.name = "edge-" + std::to_string(k);
        edge.id = k;
        edge.throughput_scale =
            std::max(config.edge_scale_floor,
                     1.0 - static_cast<double>(k) * config.edge_scale_step);
        edge.base_rtt_s = static_cast<double>(k) * config.edge_rtt_step_s;
        sources.emplace_back(session.throughput_mbps, edge, &session.signal_dbm);
      }
      playback = simulators[s].run(bba, session,
                                   std::span<const net::SegmentSource>(sources),
                                   nullptr, &tracks[s]);
    }
    unit.metrics = compute_metrics(bba.name(), session.spec.id, playback,
                                   manifests[s], qoe_model, power_model);
    unit.hedges = playback.total_hedges;
    unit.failovers = playback.total_failovers;
    unit.breaker_transitions = playback.breaker_transitions;
    return unit;
  };

  const std::size_t jobs = config.evaluation.exec.resolved_jobs();
  const std::size_t n_sessions = sessions.size();
  const std::size_t n_cells =
      families.size() * config.intensities.size() * config.source_counts.size();
  const std::size_t counts_per_family =
      config.intensities.size() * config.source_counts.size();

  // Fault-free single-source reference.
  const auto clean_units =
      util::parallel_map(jobs, n_sessions, [&](std::size_t s) {
        return run_unit(s, CdnFaultFamily::kOriginOutage, 0.0, 0, 0);
      });

  CdnFaultStudyResult result;
  for (const auto& unit : clean_units) {
    result.clean.algorithm = unit.metrics.algorithm;
    result.clean.mean_qoe +=
        unit.metrics.mean_qoe / static_cast<double>(n_sessions);
    result.clean.total_energy_j += unit.metrics.total_energy_j;
    result.clean.rebuffer_s += unit.metrics.rebuffer_s;
    result.clean.mean_bitrate_mbps +=
        unit.metrics.mean_bitrate_mbps / static_cast<double>(n_sessions);
  }

  // The grid, flattened to (grid point, session) units; each unit's fault
  // seed is pure in (config.seed, grid index, session id). The seed ignores
  // the source-count axis on purpose: a given (family, intensity, session)
  // draws the *same* origin fault realisation at every source count, so the
  // source-count axis isolates the failover machinery rather than re-rolling
  // the faults.
  const auto cell_units =
      util::parallel_map(jobs, n_cells * n_sessions, [&](std::size_t item) {
        const std::size_t grid_index = item / n_sessions;
        const std::size_t s = item % n_sessions;
        const auto family = families[grid_index / counts_per_family];
        const std::size_t within = grid_index % counts_per_family;
        const double intensity =
            config.intensities[within / config.source_counts.size()];
        const std::size_t count =
            config.source_counts[within % config.source_counts.size()];
        const std::size_t fault_point =
            grid_index / config.source_counts.size();
        return run_unit(s, family, intensity, count,
                        seed_mix(config.seed, fault_point, sessions[s].spec.id));
      });

  // Serial reduction in grid order: bit-identical at any job count.
  std::size_t grid_index = 0;
  for (const auto family : families) {
    for (const double intensity : config.intensities) {
      for (const std::size_t count : config.source_counts) {
        CdnFaultCell cell;
        cell.family = family;
        cell.intensity = intensity;
        cell.sources = count;
        for (std::size_t s = 0; s < n_sessions; ++s) {
          const auto& unit = cell_units[grid_index * n_sessions + s];
          cell.mean_qoe +=
              unit.metrics.mean_qoe / static_cast<double>(n_sessions);
          cell.total_energy_j += unit.metrics.total_energy_j;
          cell.wasted_energy_j += unit.metrics.wasted_energy_j;
          cell.rebuffer_s += unit.metrics.rebuffer_s;
          cell.mean_bitrate_mbps +=
              unit.metrics.mean_bitrate_mbps / static_cast<double>(n_sessions);
          cell.retries += unit.metrics.retries;
          cell.hedges += unit.hedges;
          cell.failovers += unit.failovers;
          cell.breaker_transitions += unit.breaker_transitions;
        }
        cell.qoe_delta_vs_clean = cell.mean_qoe - result.clean.mean_qoe;
        cell.rebuffer_delta_vs_clean_s = cell.rebuffer_s - result.clean.rebuffer_s;
        result.cells.push_back(cell);
        ++grid_index;
      }
    }
  }

  // Deltas vs. the retry-only (source-count-1) cell of the same family and
  // intensity, once all cells exist.
  for (auto& cell : result.cells) {
    bool found = false;
    for (const auto& single : result.cells) {
      if (single.sources == 1 && single.family == cell.family &&
          std::fabs(single.intensity - cell.intensity) < 1e-12) {
        cell.qoe_delta_vs_single = cell.mean_qoe - single.mean_qoe;
        cell.energy_delta_vs_single_j =
            cell.total_energy_j - single.total_energy_j;
        cell.rebuffer_delta_vs_single_s = cell.rebuffer_s - single.rebuffer_s;
        found = true;
        break;
      }
    }
    if (!found) {
      cell.qoe_delta_vs_single = 0.0;
      cell.energy_delta_vs_single_j = 0.0;
      cell.rebuffer_delta_vs_single_s = 0.0;
    }
  }
  return result;
}

}  // namespace eacs::sim
