// sim::StudyGrid is the harness the link, sensor and CDN fault studies share:
// its fan-outs must hand every (cell, session) result back at a fixed slot
// whatever the job count, and its axis check must refuse a sweep axis that
// would label one cell with another's numbers.

#include "eacs/sim/study_grid.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace eacs::sim {
namespace {

TEST(StudyGridTest, UnitsComeBackCellMajorAtAnyJobCount) {
  constexpr std::size_t kCells = 7;
  for (const std::size_t jobs : {1U, 2U, 8U}) {
    SCOPED_TRACE(::testing::Message() << "jobs=" << jobs);
    EvaluationConfig config;
    config.session_options.margin_s = 30.0;
    config.exec.jobs = jobs;
    const StudyGrid grid(config, config.player);
    ASSERT_GT(grid.size(), 1U);

    const auto baseline = grid.baseline([&](std::size_t s) {
      return grid.session(s).spec.id;
    });
    ASSERT_EQ(baseline.size(), grid.size());
    for (std::size_t s = 0; s < grid.size(); ++s) {
      EXPECT_EQ(baseline[s], grid.session(s).spec.id);
    }

    const auto units = grid.cells(kCells, [&](std::size_t cell, std::size_t s) {
      return std::pair{cell, grid.session(s).spec.id};
    });
    ASSERT_EQ(units.size(), kCells * grid.size());
    for (std::size_t cell = 0; cell < kCells; ++cell) {
      for (std::size_t s = 0; s < grid.size(); ++s) {
        EXPECT_EQ(units[cell * grid.size() + s],
                  std::pair(cell, grid.session(s).spec.id))
            << "cell " << cell << " session " << s;
      }
    }
  }
}

TEST(StudyGridTest, AxisCheckRejectsEmptyAndBadValues) {
  const auto message = [](const std::vector<double>& axis) -> std::string {
    try {
      StudyGrid::check_axis("my_study", axis);
    } catch (const std::invalid_argument& error) {
      return error.what();
    }
    return "";
  };
  EXPECT_NE(message({}).find("my_study"), std::string::npos);
  for (const double bad : {-0.25, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    EXPECT_NE(message({0.0, bad}).find("my_study"), std::string::npos)
        << "value " << bad;
  }
  EXPECT_NO_THROW(StudyGrid::check_axis("my_study", std::vector<double>{0.0, 1.5}));
}

}  // namespace
}  // namespace eacs::sim
