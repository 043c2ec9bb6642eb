// Exact model-eval counters of the planner hot path, on the task grids of
// bench/bench_planner_hotpath.cpp. A cached DAG-DP plan builds one
// TaskCostTable per task, N*(2M+1) QoE/power evaluations; the uncached
// reference formulation pays four per edge, 4*(M + (N-1)*M^2). A 21-step
// Pareto sweep re-weights one table per task instead of rebuilding it per
// alpha. The release CI leg checks the same values from the bench's JSON.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "eacs/core/cost_stats.h"
#include "eacs/core/optimal.h"
#include "eacs/core/pareto.h"
#include "eacs/util/rng.h"

namespace eacs::core {
namespace {

// The bench's task generator, draw for draw.
std::vector<TaskEnvironment> make_tasks(std::size_t n, std::size_t m,
                                        std::uint64_t seed) {
  eacs::Rng rng(seed);
  std::vector<TaskEnvironment> tasks;
  tasks.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    TaskEnvironment env;
    env.index = i;
    env.duration_s = 2.0;
    env.signal_dbm = rng.uniform(-115.0, -85.0);
    env.vibration = rng.uniform(0.0, 7.0);
    env.bandwidth_mbps = rng.uniform(2.0, 30.0);
    for (std::size_t level = 0; level < m; ++level) {
      env.size_megabits.push_back(0.2 * static_cast<double>(level + 1) * 2.0);
    }
    tasks.push_back(std::move(env));
  }
  return tasks;
}

TEST(PlannerHotPathPinsTest, CachedAndReferenceModelEvalsAtN300M14) {
  const std::uint64_t n = 300;
  const std::uint64_t m = 14;
  const auto tasks = make_tasks(n, m, 42);
  const OptimalPlanner planner(Objective(qoe::QoeModel{}, power::PowerModel{},
                                         ObjectiveConfig{}));

  CostStats cached;
  OptimalPlan cached_plan;
  {
    CostStatsScope scope(cached);
    cached_plan = planner.plan(tasks, PlannerMethod::kDagDp);
  }
  CostStats reference;
  OptimalPlan reference_plan;
  {
    CostStatsScope scope(reference);
    reference_plan = planner.plan_reference(tasks);
  }
  EXPECT_EQ(cached.model_evals(), n * (2 * m + 1));
  EXPECT_EQ(reference.model_evals(), 4 * (m + (n - 1) * m * m));
  EXPECT_GE(reference.model_evals(), 20 * cached.model_evals());
  EXPECT_EQ(cached_plan.levels, reference_plan.levels);
  EXPECT_EQ(cached_plan.total_cost, reference_plan.total_cost);
}

TEST(PlannerHotPathPinsTest, ParetoSweepBuildsOneTablePerTask) {
  const auto tasks = make_tasks(120, 14, 7);
  CostStats stats;
  {
    CostStatsScope scope(stats);
    compute_pareto_front(tasks, qoe::QoeModel{}, power::PowerModel{}, 21);
  }
  EXPECT_EQ(stats.tables_built, 120U);
}

}  // namespace
}  // namespace eacs::core
