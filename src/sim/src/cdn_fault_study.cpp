#include "eacs/sim/cdn_fault_study.h"

#include <cmath>
#include <span>
#include <stdexcept>

#include "eacs/abr/bba.h"
#include "eacs/net/segment_source.h"
#include "eacs/sim/seed_mix.h"
#include "eacs/sim/study_grid.h"

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
  StudyGrid::check_axis("run_cdn_fault_study", config.intensities);
  if (config.source_counts.empty()) {
    throw std::invalid_argument("run_cdn_fault_study: empty sweep axis");
  }
  for (const std::size_t count : config.source_counts) {
    if (count == 0) {
      throw std::invalid_argument("run_cdn_fault_study: zero source count");
    }
  }
  const auto families =
      config.families.empty() ? all_cdn_fault_families() : config.families;

  EvaluationConfig evaluation_config = config.evaluation;
  evaluation_config.player.resilience.hedge_enabled = config.hedge_enabled;
  const Evaluation evaluation(evaluation_config);
  const auto sessions = trace::build_all_sessions(config.evaluation.session_options);
  const StudyGrid grid(evaluation, sessions);

  struct UnitResult {
    SessionMetrics metrics;
    std::size_t hedges = 0;
    std::size_t failovers = 0;
    std::size_t breaker_transitions = 0;
  };

  // One unit: the delivery policy (BBA — the study isolates delivery
  // robustness, not ABR choice) over one session, on the clean link or
  // through the given sources.
  const auto run_bba = [&](std::size_t s, const auto&... sources) {
    abr::Bba bba(5.0, config.evaluation.player.buffer_threshold_s);
    const auto playback = grid.replay(s, bba, sources...);
    UnitResult unit;
    unit.metrics = grid.metrics(s, bba, playback);
    unit.hedges = playback.total_hedges;
    unit.failovers = playback.total_failovers;
    unit.breaker_transitions = playback.breaker_transitions;
    return unit;
  };

  // Fault-free single-source reference.
  CdnFaultStudyResult result;
  for (const auto& unit : grid.baseline(run_bba)) {
    result.clean.algorithm = unit.metrics.algorithm;
    result.clean.mean_qoe +=
        unit.metrics.mean_qoe / static_cast<double>(grid.size());
    result.clean.total_energy_j += unit.metrics.total_energy_j;
    result.clean.rebuffer_s += unit.metrics.rebuffer_s;
    result.clean.mean_bitrate_mbps +=
        unit.metrics.mean_bitrate_mbps / static_cast<double>(grid.size());
  }

  // The grid: the origin plus (count - 1) edges per unit. Each unit's fault
  // seed is pure in (config.seed, fault point, session id), where the fault
  // point skips the source-count axis on purpose: a given (family,
  // intensity, session) draws the *same* origin fault realisation at every
  // source count, so that axis isolates the failover machinery rather than
  // re-rolling the faults.
  const std::size_t n_counts = config.source_counts.size();
  const std::size_t n_intensities = config.intensities.size();
  const auto cell_units = grid.cells(
      families.size() * n_intensities * n_counts,
      [&](std::size_t grid_index, std::size_t s) {
        const std::size_t fault_point = grid_index / n_counts;
        const std::size_t count = config.source_counts[grid_index % n_counts];
        const auto& session = grid.session(s);
        std::vector<net::SegmentSource> sources;
        sources.reserve(count);
        net::CdnSourceConfig origin;
        origin.name = "origin";
        origin.id = 0;
        origin.faults = origin_spec(
            config, families[fault_point / n_intensities],
            config.intensities[fault_point % n_intensities],
            seed_mix(config.seed, fault_point, session.spec.id));
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
        return run_bba(s, std::span<const net::SegmentSource>(sources));
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
        for (std::size_t s = 0; s < grid.size(); ++s) {
          const auto& unit = cell_units[grid_index * grid.size() + s];
          cell.mean_qoe +=
              unit.metrics.mean_qoe / static_cast<double>(grid.size());
          cell.total_energy_j += unit.metrics.total_energy_j;
          cell.wasted_energy_j += unit.metrics.wasted_energy_j;
          cell.rebuffer_s += unit.metrics.rebuffer_s;
          cell.mean_bitrate_mbps +=
              unit.metrics.mean_bitrate_mbps / static_cast<double>(grid.size());
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
  // intensity, once all cells exist; they stay zero without such a cell.
  for (auto& cell : result.cells) {
    for (const auto& single : result.cells) {
      if (single.sources == 1 && single.family == cell.family &&
          std::fabs(single.intensity - cell.intensity) < 1e-12) {
        cell.qoe_delta_vs_single = cell.mean_qoe - single.mean_qoe;
        cell.energy_delta_vs_single_j =
            cell.total_energy_j - single.total_energy_j;
        cell.rebuffer_delta_vs_single_s = cell.rebuffer_s - single.rebuffer_s;
        break;
      }
    }
  }
  return result;
}

}  // namespace eacs::sim
