// Exact counter pins for the fleets of bench/bench_fleet_scale.cpp and
// bench/bench_fleet_planner.cpp. run_fleet is deterministic in (config), so
// a drift in any value below means the event flow (arrivals, throttle
// wakeups, request/complete pairing), the cache key math, the quantization
// grid or the planner's work accounting changed. The release CI leg checks
// the same values from the benches' JSON output.
#include <cstdint>

#include <gtest/gtest.h>

#include "eacs/media/bitrate_ladder.h"
#include "eacs/sim/fleet.h"

namespace eacs::sim {
namespace {

// bench_fleet_scale: the default fleet (16 cells, 8 regions, 4 arrivals/s,
// 30 segments) at each size.
FleetConfig scale_fleet(std::size_t sessions) {
  FleetConfig config;
  config.num_sessions = sessions;
  return config;
}

// bench_fleet_planner: the 14-rung evaluation ladder and 60-segment
// sessions, planner policy at the given cache capacity.
FleetConfig planner_fleet(std::size_t sessions, std::size_t capacity) {
  FleetConfig config;
  config.num_sessions = sessions;
  config.segments_per_session = 60;
  const auto ladder = media::BitrateLadder::evaluation14();
  config.ladder_mbps.clear();
  for (std::size_t l = 0; l < ladder.size(); ++l) {
    config.ladder_mbps.push_back(ladder.bitrate(l));
  }
  config.policy = FleetPolicy::kPlanner;
  config.planner_cache.capacity = capacity;
  return config;
}

TEST(FleetPinsTest, ScaleEventCountsAndFlatLiveSet) {
  const FleetMetrics k1 = run_fleet(scale_fleet(1000));
  const FleetMetrics k10 = run_fleet(scale_fleet(10000));
  const FleetMetrics k100 = run_fleet(scale_fleet(100000));
  const std::size_t segments = FleetConfig{}.segments_per_session;
  EXPECT_EQ(k1.requests, 1000 * segments);
  EXPECT_EQ(k10.requests, 10000 * segments);
  EXPECT_EQ(k100.requests, 100000 * segments);
  EXPECT_EQ(k1.events, 67498U);
  EXPECT_EQ(k10.events, 672140U);
  EXPECT_EQ(k100.events, 6717766U);
  // O(live) memory: the live set stays flat across a 100x larger fleet.
  EXPECT_LE(k100.peak_live_sessions, 2 * k1.peak_live_sessions);
}

TEST(FleetPinsTest, PlannerCacheCountersAt1k) {
  const FleetMetrics cached =
      run_fleet(planner_fleet(1000, FleetConfig{}.planner_cache.capacity));
  EXPECT_EQ(cached.sessions, 1000U);
  EXPECT_EQ(cached.requests, 60000U);
  // One startup request per session bypasses the cache; every other request
  // is exactly one hit or one miss.
  EXPECT_EQ(cached.planner.cache_hits, 51369U);
  EXPECT_EQ(cached.planner.cache_misses, 7631U);
  EXPECT_EQ(cached.planner.cache_evictions, 38U);
  // Every miss is one horizon plan; each plan costs horizon tables of 2M+1
  // model evaluations (M = 14 evaluation-ladder rungs).
  EXPECT_EQ(cached.planner.plans, 7631U);
  EXPECT_EQ(cached.planner.model_evals(), 1106495U);

  // Capacity 0: the same quantized decisions with no reuse.
  const FleetMetrics naive = run_fleet(planner_fleet(1000, 0));
  const double naive_per_session =
      static_cast<double>(naive.planner.model_evals()) / 1000.0;
  const double cached_per_session =
      static_cast<double>(cached.planner.model_evals()) / 1000.0;
  EXPECT_EQ(naive_per_session, 8555.0);
  EXPECT_GT(naive_per_session / cached_per_session, 7.0);
}

}  // namespace
}  // namespace eacs::sim
