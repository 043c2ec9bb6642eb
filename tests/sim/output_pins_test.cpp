// Whole-output pins: FNV-1a digests of the bit patterns of every field the
// evaluation and the fleet report. A %a dump of two runs is byte-identical
// iff their digests here are equal, so these tests are the local form of the
// parent-vs-change dump comparison (the verify recipe): a refactor or a
// speed-up that claims to move no output must leave every value below as it
// is. The workloads mirror the repository benchmark's at a smaller size:
//   - the Table V evaluation (all five algorithms, paper defaults);
//   - trace_eval's 40 re-seeded Table V sessions (default seed);
//   - fleet_vod's throughput fleet, fleet_planner's Eq. 11 planner fleet and
//     fleet_faults' planner fleet under the combined seeded fault overlay.
// Each runs at two job counts: the digests must not depend on them.
#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "eacs/media/bitrate_ladder.h"
#include "eacs/media/catalogue.h"
#include "eacs/sim/evaluation.h"
#include "eacs/sim/fleet.h"
#include "eacs/sim/fleet_fault_study.h"
#include "eacs/trace/session.h"

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
  std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

std::uint64_t digest(const std::vector<SessionMetrics>& rows) {
  BitDigest d;
  for (const SessionMetrics& r : rows) {
    for (const char c : r.algorithm) d.add(static_cast<std::uint64_t>(c));
    d.add(static_cast<std::uint64_t>(r.session_id));
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

/// SplitMix64 finalizer over (seed, lane), as the benchmark derives its
/// per-purpose seeds from the one workload seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t lane) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (lane + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
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
