// Whole-output pins: FNV-1a digests of the bit patterns of every field the
// evaluation and the fleet report. A %a dump of two runs is byte-identical
// iff their digests here are equal, so these tests are the local form of the
// parent-vs-change dump comparison (the verify recipe): a refactor or a
// speed-up that claims to move no output must leave every value below as it
// is. The workloads mirror the repository benchmark's at a smaller size:
//   - the Table V evaluation (all five algorithms, paper defaults);
//   - trace_eval's 40 re-seeded Table V sessions (default seed);
//   - fleet_vod's throughput fleet, fleet_planner's Eq. 11 planner fleet and
//     fleet_faults' planner fleet under the combined seeded fault overlay;
//   - the link, sensor and CDN fault studies on 2-value axes, the seed
//     robustness study, and an evaluation with BOLA and a decision cache.
// Each runs at two job counts: the digests must not depend on them.
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "eacs/media/bitrate_ladder.h"
#include "eacs/media/catalogue.h"
#include "eacs/sim/cdn_fault_study.h"
#include "eacs/sim/evaluation.h"
#include "eacs/sim/fault_study.h"
#include "eacs/sim/fleet.h"
#include "eacs/sim/fleet_fault_study.h"
#include "eacs/sim/robustness.h"
#include "eacs/sim/sensor_fault_study.h"
#include "eacs/trace/session.h"
#include "eacs/util/rng.h"

namespace eacs::sim {
namespace {

/// FNV-1a (64-bit) over the bit pattern of every folded value.
class BitDigest {
 public:
  BitDigest& add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xFFU;
      hash_ *= 0x100000001B3ULL;
    }
    return *this;
  }
  BitDigest& add(double v) { return add(std::bit_cast<std::uint64_t>(v)); }
  BitDigest& add(const RunningStats& s) {
    const RunningStatsState st = s.state();
    return add(static_cast<std::uint64_t>(st.count))
        .add(st.mean).add(st.m2).add(st.sum).add(st.min).add(st.max);
  }
  BitDigest& add(const ReservoirSampler& r) {
    add(static_cast<std::uint64_t>(r.count()));
    for (const double x : r.sample()) add(x);
    return *this;
  }
  BitDigest& add(const core::CostStats& c) {
    return add(c.qoe_model_evals).add(c.power_model_evals).add(c.edge_evals)
        .add(c.tables_built).add(c.plans).add(c.cache_hits)
        .add(c.cache_misses).add(c.cache_evictions);
  }
  BitDigest& add(const FleetCounters& c) {
    for (const std::size_t v :
         {c.sessions, c.events, c.requests, c.handoffs, c.stall_events,
          c.peak_live_sessions, c.escape_handoffs, c.backoff_retries,
          c.abandoned_sessions, c.policy_sheds, c.policy_recoveries,
          c.shed_decisions}) {
      add(static_cast<std::uint64_t>(v));
    }
    return add(c.degraded_time_s).add(c.wasted_energy_j).add(c.planner);
  }
  BitDigest& add(const std::string& s) {
    for (const char c : s) add(static_cast<std::uint64_t>(c));
    return *this;
  }
  std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

std::uint64_t digest(const std::vector<SessionMetrics>& rows) {
  BitDigest d;
  for (const SessionMetrics& r : rows) {
    d.add(r.algorithm).add(static_cast<std::uint64_t>(r.session_id));
    d.add(r.total_energy_j).add(r.base_energy_j).add(r.extra_energy_j)
        .add(r.mean_qoe).add(r.mean_bitrate_mbps).add(r.downloaded_mb)
        .add(r.rebuffer_s).add(r.startup_delay_s).add(r.wasted_energy_j)
        .add(r.wasted_mb);
    for (const std::size_t v : {r.rebuffer_events, r.switch_count, r.retries,
                                r.abandoned_segments}) {
      d.add(static_cast<std::uint64_t>(v));
    }
  }
  return d.value();
}

std::uint64_t digest(const FleetMetrics& m) {
  BitDigest d;
  d.add(static_cast<const FleetCounters&>(m));
  d.add(m.qoe).add(m.energy_j).add(m.bitrate_mbps).add(m.rebuffer_s)
      .add(m.startup_s);
  d.add(m.qoe_sample).add(m.energy_sample).add(m.rebuffer_sample);
  for (const FleetRegionMetrics& r : m.regions) {
    d.add(static_cast<const FleetCounters&>(r));
    for (const std::size_t v : {r.region, r.first_cell, r.num_cells}) {
      d.add(static_cast<std::uint64_t>(v));
    }
    d.add(r.median_qoe).add(r.median_energy_j);
  }
  return d.value();
}

std::uint64_t digest(const FaultStudyResult& result) {
  BitDigest d;
  for (const FaultCell& c : result.cells) {
    d.add(c.algorithm).add(c.outage_rate_per_min).add(c.failure_prob)
        .add(c.mean_qoe).add(c.total_energy_j).add(c.wasted_energy_j)
        .add(c.rebuffer_s).add(static_cast<std::uint64_t>(c.retries))
        .add(static_cast<std::uint64_t>(c.abandoned_segments))
        .add(c.qoe_delta).add(c.energy_delta_j).add(c.rebuffer_delta_s);
  }
  return d.value();
}

BitDigest& add_baseline(BitDigest& d, const std::string& algorithm,
                        double mean_qoe, double total_energy_j,
                        double rebuffer_s, double mean_bitrate_mbps) {
  return d.add(algorithm).add(mean_qoe).add(total_energy_j).add(rebuffer_s)
      .add(mean_bitrate_mbps);
}

std::uint64_t digest(const SensorFaultStudyResult& result) {
  BitDigest d;
  for (const SensorFaultBaseline* b : {&result.clean_ours, &result.context_blind}) {
    add_baseline(d, b->algorithm, b->mean_qoe, b->total_energy_j, b->rebuffer_s,
                 b->mean_bitrate_mbps);
  }
  for (const SensorFaultCell& c : result.cells) {
    d.add(static_cast<std::uint64_t>(c.scenario)).add(c.intensity)
        .add(c.mean_qoe).add(c.total_energy_j).add(c.rebuffer_s)
        .add(c.mean_bitrate_mbps).add(c.mean_context_error)
        .add(c.qoe_delta_vs_clean).add(c.energy_delta_vs_clean_j)
        .add(c.rebuffer_delta_vs_clean_s).add(c.qoe_delta_vs_blind)
        .add(c.energy_delta_vs_blind_j);
  }
  return d.value();
}

std::uint64_t digest(const CdnFaultStudyResult& result) {
  BitDigest d;
  add_baseline(d, result.clean.algorithm, result.clean.mean_qoe,
               result.clean.total_energy_j, result.clean.rebuffer_s,
               result.clean.mean_bitrate_mbps);
  for (const CdnFaultCell& c : result.cells) {
    d.add(static_cast<std::uint64_t>(c.family)).add(c.intensity)
        .add(static_cast<std::uint64_t>(c.sources)).add(c.mean_qoe)
        .add(c.total_energy_j).add(c.wasted_energy_j).add(c.rebuffer_s)
        .add(c.mean_bitrate_mbps);
    for (const std::size_t v : {c.retries, c.hedges, c.failovers,
                                c.breaker_transitions}) {
      d.add(static_cast<std::uint64_t>(v));
    }
    d.add(c.qoe_delta_vs_single).add(c.energy_delta_vs_single_j)
        .add(c.rebuffer_delta_vs_single_s).add(c.qoe_delta_vs_clean)
        .add(c.rebuffer_delta_vs_clean_s);
  }
  return d.value();
}

std::uint64_t digest(const RobustnessResult& result) {
  BitDigest d;
  d.add(static_cast<std::uint64_t>(result.runs));
  for (const auto& [algorithm, dist] : result.per_algorithm) {
    d.add(algorithm).add(dist.energy_saving).add(dist.extra_energy_saving)
        .add(dist.qoe_degradation).add(dist.mean_qoe);
  }
  return d.value();
}

/// SplitMix64 finalizer over (seed, lane), as the benchmark derives its
/// per-purpose seeds from the one workload seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t lane) {
  return avalanche(seed + 0x9E3779B97F4A7C15ULL * (lane + 1));
}

constexpr std::uint64_t kWorkloadSeed = 1;  // the benchmark's default seed

EvaluationResult evaluate(const std::vector<trace::SessionTraces>& sessions,
                          std::size_t jobs) {
  EvaluationConfig config;
  config.exec.jobs = jobs;
  return Evaluation(config).run(sessions);
}

TEST(OutputPinsTest, TableVEvaluationRows) {
  const std::vector<trace::SessionTraces> sessions = trace::build_all_sessions();
  EXPECT_EQ(digest(evaluate(sessions, 1).rows), 0xd8f0bb765df41f9aULL);
  EXPECT_EQ(digest(evaluate(sessions, 4).rows), 0xd8f0bb765df41f9aULL);
}

TEST(OutputPinsTest, ReseededTableVSessionRows) {
  const auto& table_v = media::evaluation_sessions();
  std::vector<trace::SessionTraces> sessions;
  for (std::size_t i = 0; i < 40; ++i) {
    media::SessionSpec spec = table_v[i % table_v.size()];
    spec.id = static_cast<int>(i);
    spec.seed = derive_seed(kWorkloadSeed, 100 + i);
    sessions.push_back(trace::build_session(spec));
  }
  EXPECT_EQ(digest(evaluate(sessions, 1).rows), 0xb7d9e12833d7cd4aULL);
  EXPECT_EQ(digest(evaluate(sessions, 4).rows), 0xb7d9e12833d7cd4aULL);
}

TEST(OutputPinsTest, EvaluationWithBolaAndDecisionCacheRows) {
  const std::vector<trace::SessionTraces> sessions = trace::build_all_sessions();
  for (const std::size_t jobs : {1U, 4U}) {
    EvaluationConfig config;
    config.include_bola = true;
    config.online_cache = core::DecisionCacheConfig{};  // exact keys
    config.exec.jobs = jobs;
    EXPECT_EQ(digest(Evaluation(config).run(sessions).rows), 0x720bfd540be3ed45ULL)
        << "jobs " << jobs;
  }
}

// The three trace-replay fault studies, each on 2-value axes.
TEST(OutputPinsTest, LinkFaultStudyTable) {
  for (const std::size_t jobs : {1U, 4U}) {
    FaultStudyConfig config;
    config.outage_rates_per_min = {0.0, 1.0};
    config.failure_probs = {0.0, 0.25};
    config.evaluation.exec.jobs = jobs;
    EXPECT_EQ(digest(run_fault_study(config)), 0x452671b394a562f4ULL) << "jobs " << jobs;
  }
}

TEST(OutputPinsTest, SensorFaultStudyTable) {
  for (const std::size_t jobs : {1U, 4U}) {
    SensorFaultStudyConfig config;
    config.scenarios = {SensorFaultScenario::kNoiseBurst,
                        SensorFaultScenario::kCombined};
    config.intensities = {0.25, 1.0};
    config.evaluation.exec.jobs = jobs;
    EXPECT_EQ(digest(run_sensor_fault_study(config)), 0xb20d2d114ed6b8e7ULL)
        << "jobs " << jobs;
  }
}

TEST(OutputPinsTest, CdnFaultStudyTable) {
  for (const std::size_t jobs : {1U, 4U}) {
    CdnFaultStudyConfig config;
    config.families = {CdnFaultFamily::kOriginOutage, CdnFaultFamily::kCombined};
    config.intensities = {0.5, 1.0};
    config.source_counts = {1, 2};
    config.evaluation.exec.jobs = jobs;
    EXPECT_EQ(digest(run_cdn_fault_study(config)), 0x74225c8ad0c3a12eULL) << "jobs " << jobs;
  }
}

TEST(OutputPinsTest, SeedRobustnessDistributions) {
  EXPECT_EQ(digest(run_robustness_study({}, 2)), 0x1187202f6cd8d07bULL);
  EXPECT_EQ(digest(run_robustness_study({}, 2, 0xB0B5'7D1EULL,
                                        ExecutionPolicy{4})),
            0x1187202f6cd8d07bULL);
}

/// The benchmark's fleet shapes, cut to 2 000 sessions.
FleetConfig fleet(FleetPolicy policy, std::size_t sessions) {
  FleetConfig config;
  config.seed = derive_seed(kWorkloadSeed, 1);
  config.num_sessions = sessions;
  config.policy = policy;
  if (policy == FleetPolicy::kThroughput) return config;
  const media::BitrateLadder ladder = media::BitrateLadder::evaluation14();
  config.ladder_mbps.clear();
  for (std::size_t l = 0; l < ladder.size(); ++l) {
    config.ladder_mbps.push_back(ladder.bitrate(l));
  }
  config.segments_per_session = 60;
  return config;
}

/// fleet_faults' overlay: run_fleet_fault_study's kCombined cell at
/// intensity 1.0 (every family at half strength) with 2-cell fault domains.
FleetFaultSpec combined_faults(const FleetConfig& config) {
  const FleetFaultStudyConfig study;
  constexpr double kLevel = 0.5;
  const auto lerp_from_one = [](double full) {
    return 1.0 + (full - 1.0) * kLevel;
  };
  FleetFaultSpec spec;
  SeededFaultConfig& gen = spec.seeded;
  gen.horizon_s =
      static_cast<double>(config.num_sessions) / config.arrival_rate_per_s +
      4.0 * static_cast<double>(config.segments_per_session) *
          config.segment_duration_s;
  gen.epoch_s = study.epoch_s;
  gen.domain_cells = 2;
  gen.seed = study.seed;
  gen.outage_prob = study.outage_prob * kLevel;
  gen.outage_duration_s = study.outage_duration_s;
  gen.brownout_prob = study.brownout_prob * kLevel;
  gen.brownout_factor = lerp_from_one(study.brownout_factor);
  gen.brownout_duration_s = study.brownout_duration_s;
  gen.collapse_prob = study.collapse_prob * kLevel;
  gen.collapse_db = study.collapse_db * kLevel;
  gen.collapse_duration_s = study.collapse_duration_s;
  gen.surge_prob = study.surge_prob * kLevel;
  gen.surge_multiplier = lerp_from_one(study.surge_multiplier);
  gen.surge_duration_s = study.surge_duration_s;
  return spec;
}

std::uint64_t fleet_digest(FleetConfig config, std::size_t jobs) {
  config.exec.jobs = jobs;
  return digest(run_fleet(config));
}

TEST(OutputPinsTest, ThroughputFleetMetrics) {
  const FleetConfig config = fleet(FleetPolicy::kThroughput, 2000);
  EXPECT_EQ(fleet_digest(config, 1), 0xb4f3b72924489cafULL);
  EXPECT_EQ(fleet_digest(config, 4), 0xb4f3b72924489cafULL);
}

TEST(OutputPinsTest, PlannerFleetMetrics) {
  const FleetConfig config = fleet(FleetPolicy::kPlanner, 2000);
  EXPECT_EQ(fleet_digest(config, 1), 0xceabb005aa070dd1ULL);
  EXPECT_EQ(fleet_digest(config, 4), 0xceabb005aa070dd1ULL);
}

TEST(OutputPinsTest, FaultedPlannerFleetMetrics) {
  FleetConfig config = fleet(FleetPolicy::kPlanner, 2000);
  config.regions = 4;
  config.faults = combined_faults(config);
  EXPECT_EQ(fleet_digest(config, 1), 0xf9b9536db8eff9f6ULL);
  EXPECT_EQ(fleet_digest(config, 4), 0xf9b9536db8eff9f6ULL);
}

}  // namespace
}  // namespace eacs::sim
