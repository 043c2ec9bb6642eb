// CDN fault study acceptance tests.
//
// The contract-level facts the ISSUE pins down:
//  * the sweep is bit-identical at any job count (1, 2, 8);
//  * during origin outages, >= 2 sources strictly dominate the single-source
//    retry-only baseline on rebuffering;
//  * the deltas are exact arithmetic on the grid's own cells;
//  * degenerate configurations fail loudly.

#include "eacs/sim/cdn_fault_study.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

namespace eacs::sim {
namespace {

CdnFaultStudyConfig small_grid() {
  CdnFaultStudyConfig config;
  config.families = {CdnFaultFamily::kOriginOutage, CdnFaultFamily::kErrorBursts};
  config.intensities = {1.0};
  config.source_counts = {1, 2};
  return config;
}

void expect_cells_bit_identical(const CdnFaultStudyResult& a,
                                const CdnFaultStudyResult& b) {
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].mean_qoe, b.cells[i].mean_qoe) << "cell " << i;
    EXPECT_EQ(a.cells[i].total_energy_j, b.cells[i].total_energy_j);
    EXPECT_EQ(a.cells[i].wasted_energy_j, b.cells[i].wasted_energy_j);
    EXPECT_EQ(a.cells[i].rebuffer_s, b.cells[i].rebuffer_s);
    EXPECT_EQ(a.cells[i].mean_bitrate_mbps, b.cells[i].mean_bitrate_mbps);
    EXPECT_EQ(a.cells[i].retries, b.cells[i].retries);
    EXPECT_EQ(a.cells[i].hedges, b.cells[i].hedges);
    EXPECT_EQ(a.cells[i].failovers, b.cells[i].failovers);
    EXPECT_EQ(a.cells[i].breaker_transitions, b.cells[i].breaker_transitions);
    EXPECT_EQ(a.cells[i].qoe_delta_vs_single, b.cells[i].qoe_delta_vs_single);
    EXPECT_EQ(a.cells[i].rebuffer_delta_vs_single_s,
              b.cells[i].rebuffer_delta_vs_single_s);
  }
  EXPECT_EQ(a.clean.mean_qoe, b.clean.mean_qoe);
  EXPECT_EQ(a.clean.total_energy_j, b.clean.total_energy_j);
  EXPECT_EQ(a.clean.rebuffer_s, b.clean.rebuffer_s);
}

TEST(CdnFaultStudyTest, GridIsFiniteAndCompletelyPopulated) {
  const auto result = run_cdn_fault_study(small_grid());
  ASSERT_EQ(result.cells.size(), 4U);  // 2 families x 1 intensity x 2 counts
  for (const auto& cell : result.cells) {
    EXPECT_TRUE(std::isfinite(cell.mean_qoe));
    EXPECT_TRUE(std::isfinite(cell.total_energy_j));
    EXPECT_TRUE(std::isfinite(cell.wasted_energy_j));
    EXPECT_GE(cell.wasted_energy_j, 0.0);
    EXPECT_TRUE(std::isfinite(cell.rebuffer_s));
    EXPECT_GE(cell.rebuffer_s, 0.0);
    EXPECT_GT(cell.mean_bitrate_mbps, 0.0);
    // Single-source cells cannot fail over or hedge, by construction.
    if (cell.sources == 1) {
      EXPECT_EQ(cell.failovers, 0U);
      EXPECT_EQ(cell.hedges, 0U);
    }
  }
  EXPECT_TRUE(std::isfinite(result.clean.mean_qoe));
  EXPECT_GT(result.clean.mean_qoe, 0.0);
  EXPECT_TRUE(std::isfinite(result.clean.rebuffer_s));
  EXPECT_GE(result.clean.rebuffer_s, 0.0);
}

TEST(CdnFaultStudyTest, FailoverStrictlyDominatesRetryOnlyDuringOutages) {
  const auto result = run_cdn_fault_study(small_grid());
  const auto& solo = result.cell(CdnFaultFamily::kOriginOutage, 1.0, 1);
  const auto& duo = result.cell(CdnFaultFamily::kOriginOutage, 1.0, 2);

  // The retry-only baseline rides every outage out on backoff ladders; the
  // two-source player escapes to the edge.
  EXPECT_GT(solo.rebuffer_s, 0.0);
  EXPECT_LT(duo.rebuffer_s, solo.rebuffer_s);
  EXPECT_GE(duo.failovers, 1U);
  EXPECT_GE(duo.qoe_delta_vs_single, 0.0);

  // Error bursts: the second source should also slash the retry count.
  const auto& err_solo = result.cell(CdnFaultFamily::kErrorBursts, 1.0, 1);
  const auto& err_duo = result.cell(CdnFaultFamily::kErrorBursts, 1.0, 2);
  EXPECT_LT(err_duo.retries, err_solo.retries);
}

TEST(CdnFaultStudyTest, DeltasAreExactArithmeticOnTheGrid) {
  const auto result = run_cdn_fault_study(small_grid());
  for (const auto& cell : result.cells) {
    const auto& single = result.cell(cell.family, cell.intensity, 1);
    EXPECT_EQ(cell.qoe_delta_vs_single, cell.mean_qoe - single.mean_qoe);
    EXPECT_EQ(cell.energy_delta_vs_single_j,
              cell.total_energy_j - single.total_energy_j);
    EXPECT_EQ(cell.rebuffer_delta_vs_single_s,
              cell.rebuffer_s - single.rebuffer_s);
    EXPECT_EQ(cell.qoe_delta_vs_clean, cell.mean_qoe - result.clean.mean_qoe);
    EXPECT_EQ(cell.rebuffer_delta_vs_clean_s,
              cell.rebuffer_s - result.clean.rebuffer_s);
  }
}

TEST(CdnFaultStudyTest, BitIdenticalAcrossJobCounts) {
  auto config = small_grid();
  config.evaluation.exec.jobs = 1;
  const auto serial = run_cdn_fault_study(config);
  for (const std::size_t jobs : {2U, 8U}) {
    config.evaluation.exec.jobs = jobs;
    const auto parallel = run_cdn_fault_study(config);
    SCOPED_TRACE(::testing::Message() << "jobs=" << jobs);
    expect_cells_bit_identical(serial, parallel);
  }
}

TEST(CdnFaultStudyTest, ConfigValidation) {
  auto empty_axis = small_grid();
  empty_axis.intensities.clear();
  EXPECT_THROW(run_cdn_fault_study(empty_axis), std::invalid_argument);

  auto zero_sources = small_grid();
  zero_sources.source_counts = {0};
  EXPECT_THROW(run_cdn_fault_study(zero_sources), std::invalid_argument);

  // A negative or non-finite intensity is refused up front, not computed as
  // a fault-free cell under its label.
  for (const double bad : {-0.5, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    auto bad_axis = small_grid();
    bad_axis.intensities = {1.0, bad};
    EXPECT_THROW(run_cdn_fault_study(bad_axis), std::invalid_argument)
        << "intensity " << bad;
  }

  const auto result = run_cdn_fault_study(small_grid());
  EXPECT_THROW(result.cell(CdnFaultFamily::kSlowStart, 1.0, 1),
               std::out_of_range);
  EXPECT_THROW(result.cell(CdnFaultFamily::kOriginOutage, 0.25, 1),
               std::out_of_range);
  EXPECT_THROW(result.cell(CdnFaultFamily::kOriginOutage, 1.0, 7),
               std::out_of_range);
}

TEST(CdnFaultStudyTest, FamilyIdentifiersAreStable) {
  EXPECT_STREQ(to_string(CdnFaultFamily::kOriginOutage), "origin_outage");
  EXPECT_STREQ(to_string(CdnFaultFamily::kErrorBursts), "error_bursts");
  EXPECT_STREQ(to_string(CdnFaultFamily::kPayloadCorruption),
               "payload_corruption");
  EXPECT_STREQ(to_string(CdnFaultFamily::kSlowStart), "slow_start");
  EXPECT_STREQ(to_string(CdnFaultFamily::kCombined), "combined");
  EXPECT_EQ(all_cdn_fault_families().size(), 5U);
}

}  // namespace
}  // namespace eacs::sim
