#include "eacs/sim/fault_study.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

namespace eacs::sim {
namespace {

FaultStudyConfig small_grid() {
  FaultStudyConfig config;
  config.outage_rates_per_min = {0.0, 1.0};
  config.failure_probs = {0.0, 0.25};
  return config;
}

TEST(FaultStudyTest, EmptyAxesThrow) {
  FaultStudyConfig config;
  config.outage_rates_per_min.clear();
  EXPECT_THROW(run_fault_study(config), std::invalid_argument);
  config = FaultStudyConfig{};
  config.failure_probs.clear();
  EXPECT_THROW(run_fault_study(config), std::invalid_argument);
  // A negative or non-finite axis value is refused up front, not computed
  // as a fault-free cell under its label.
  for (const double bad : {-0.5, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    config = FaultStudyConfig{};
    config.outage_rates_per_min = {0.0, bad};
    EXPECT_THROW(run_fault_study(config), std::invalid_argument)
        << "outage rate " << bad;
    config = FaultStudyConfig{};
    config.failure_probs = {0.0, bad};
    EXPECT_THROW(run_fault_study(config), std::invalid_argument)
        << "failure prob " << bad;
  }
}

TEST(FaultStudyTest, DeterministicInSeed) {
  const auto config = small_grid();
  const auto a = run_fault_study(config);
  const auto b = run_fault_study(config);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].algorithm, b.cells[i].algorithm);
    EXPECT_EQ(a.cells[i].mean_qoe, b.cells[i].mean_qoe);
    EXPECT_EQ(a.cells[i].total_energy_j, b.cells[i].total_energy_j);
    EXPECT_EQ(a.cells[i].wasted_energy_j, b.cells[i].wasted_energy_j);
    EXPECT_EQ(a.cells[i].rebuffer_s, b.cells[i].rebuffer_s);
    EXPECT_EQ(a.cells[i].retries, b.cells[i].retries);
  }
}

TEST(FaultStudyTest, BaselineCellMatchesFaultFreeRun) {
  const auto result = run_fault_study(small_grid());
  // 2x2 grid, 5 algorithms.
  EXPECT_EQ(result.cells.size(), 4U * 5U);

  for (const auto& algo : {"Youtube", "FESTIVE", "BBA", "Ours", "Optimal"}) {
    const auto& cell = result.cell(algo, 0.0, 0.0);
    // The (0, 0) corner runs with a disabled FaultSpec — a strict pass-
    // through — so its deltas against the fault-free baseline are exactly 0.
    EXPECT_EQ(cell.qoe_delta, 0.0);
    EXPECT_EQ(cell.energy_delta_j, 0.0);
    EXPECT_EQ(cell.rebuffer_delta_s, 0.0);
    EXPECT_EQ(cell.retries, 0U);
    EXPECT_EQ(cell.abandoned_segments, 0U);
    EXPECT_EQ(cell.wasted_energy_j, 0.0);
  }
}

TEST(FaultStudyTest, HarshCellShowsResilienceAtWork) {
  const auto result = run_fault_study(small_grid());
  // Under 1 outage/min and 25% request failures the retry machinery must be
  // visibly engaged for every algorithm, and the waste must be priced.
  for (const auto& algo : {"Youtube", "FESTIVE", "BBA", "Ours", "Optimal"}) {
    const auto& cell = result.cell(algo, 1.0, 0.25);
    EXPECT_GT(cell.retries, 0U) << algo;
    EXPECT_GT(cell.wasted_energy_j, 0.0) << algo;
    EXPECT_LE(cell.qoe_delta, 0.0) << algo;  // faults never improve QoE
  }
}

// The study replays the evaluation's own line-up: BOLA when the evaluation
// includes it, and Ours with the evaluation's decision cache.
TEST(FaultStudyTest, HonoursTheEvaluationLineUp) {
  FaultStudyConfig config = small_grid();
  config.evaluation.include_bola = true;
  core::DecisionCacheConfig quantized;
  quantized.exact = false;
  config.evaluation.online_cache = quantized;
  const auto result = run_fault_study(config);
  EXPECT_EQ(result.cells.size(), 4U * 6U);
  const auto& bola = result.cell("BOLA", 0.0, 0.0);
  EXPECT_EQ(bola.qoe_delta, 0.0);
  EXPECT_GT(result.cell("BOLA", 1.0, 0.25).retries, 0U);

  // The fault-free Ours cell is the evaluation's Ours, summed in session
  // order; a quantized cache moves it off the uncached run.
  const auto total_energy = [](const EvaluationConfig& evaluation) {
    double total = 0.0;
    for (const auto& row : Evaluation(evaluation).run().rows_for("Ours")) {
      total += row.total_energy_j;
    }
    return total;
  };
  const double cached = total_energy(config.evaluation);
  EXPECT_EQ(result.cell("Ours", 0.0, 0.0).total_energy_j, cached);
  EXPECT_NE(cached, total_energy(EvaluationConfig{}));
}

TEST(FaultStudyTest, UnknownCellThrows) {
  const auto result = run_fault_study(small_grid());
  EXPECT_THROW(result.cell("Nope", 0.0, 0.0), std::out_of_range);
  EXPECT_THROW(result.cell("Ours", 9.9, 0.0), std::out_of_range);
}

}  // namespace
}  // namespace eacs::sim
