// sim::StudyGrid is the harness the link, sensor and CDN fault studies share:
// its fan-outs must hand every (cell, session) result back at a fixed slot
// whatever the job count, and its axis check must refuse a sweep axis that
// would label one cell with another's numbers.

#include "eacs/sim/study_grid.h"

#include <gtest/gtest.h>

#include "eacs/abr/bba.h"

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
    const std::vector<trace::SessionTraces> sessions =
        trace::build_all_sessions(config.session_options);
    const Evaluation evaluation(config);
    const StudyGrid grid(evaluation, sessions);
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

// The grid borrows its sessions and builds each one's state inside the
// fan-out: tracks and replays must not depend on the job count.
TEST(StudyGridTest, BorrowedSessionsReplayBitEqualAtAnyJobCount) {
  EvaluationConfig config;
  config.session_options.margin_s = 30.0;
  const std::vector<trace::SessionTraces> sessions =
      trace::build_all_sessions(config.session_options);

  const auto replay_all = [&](std::size_t jobs) {
    config.exec.jobs = jobs;
    const Evaluation evaluation(config);
    const StudyGrid grid(evaluation, sessions);
    EXPECT_EQ(grid.size(), sessions.size());
    // Per session: sampled track levels, then one BBA replay's outcome.
    std::vector<std::vector<double>> out(grid.size());
    for (std::size_t s = 0; s < grid.size(); ++s) {
      EXPECT_EQ(&grid.session(s), &sessions[s]) << "session " << s;
      for (std::size_t n = 0; n <= grid.track(s).size(); n += 97) {
        out[s].push_back(grid.track(s).level_after(n));
      }
      abr::Bba bba(5.0, config.player.buffer_threshold_s);
      const player::PlaybackResult playback = grid.replay(s, bba);
      for (const player::TaskRecord& task : playback.tasks) {
        out[s].push_back(static_cast<double>(task.level));
      }
      const SessionMetrics m = grid.metrics(s, bba, playback);
      out[s].insert(out[s].end(), {playback.session_end_s, m.total_energy_j,
                                   m.mean_qoe, m.rebuffer_s});
    }
    return out;
  };

  const auto serial = replay_all(1);
  for (const std::size_t jobs : {2U, 8U}) {
    SCOPED_TRACE(::testing::Message() << "jobs=" << jobs);
    EXPECT_EQ(replay_all(jobs), serial);
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
