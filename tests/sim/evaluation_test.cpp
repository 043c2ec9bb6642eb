#include "eacs/sim/evaluation.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "eacs/abr/fixed.h"
#include "eacs/core/optimal.h"
#include "../test_helpers.h"

namespace eacs::sim {
namespace {

using eacs::testing::make_session;

/// A fast two-session evaluation: one smooth/strong, one shaky/weak.
std::vector<trace::SessionTraces> mini_sessions() {
  auto quiet = make_session(120.0, 25.0, -88.0, 0.5);
  quiet.spec.id = 1;
  quiet.spec.length_s = 120.0;
  auto shaky = make_session(120.0, 7.0, -107.0, 6.5);
  shaky.spec.id = 2;
  shaky.spec.length_s = 120.0;
  return {quiet, shaky};
}

TEST(MetricsTest, EnergyAndQoeComposition) {
  const auto manifest = eacs::testing::make_manifest(20.0, 2.0);
  player::PlayerSimulator simulator(manifest);
  abr::FixedBitrate policy(13, "Top");
  const auto session = make_session(20.0, 40.0, -95.0, 3.0);
  const auto playback = simulator.run(policy, session);
  const qoe::QoeModel qoe_model;
  const power::PowerModel power_model;
  const auto metrics =
      compute_metrics("Top", 1, playback, manifest, qoe_model, power_model);

  EXPECT_GT(metrics.total_energy_j, 0.0);
  EXPECT_GT(metrics.base_energy_j, 0.0);
  EXPECT_NEAR(metrics.extra_energy_j,
              metrics.total_energy_j - metrics.base_energy_j, 1e-9);
  EXPECT_GT(metrics.extra_energy_j, 0.0);  // top bitrate costs more than base
  EXPECT_GE(metrics.mean_qoe, 1.0);
  EXPECT_LE(metrics.mean_qoe, 5.0);
  EXPECT_NEAR(metrics.mean_bitrate_mbps, 5.8, 1e-6);
}

TEST(MetricsTest, LowestBitrateRunHasNoExtraEnergy) {
  const auto manifest = eacs::testing::make_manifest(20.0, 2.0);
  player::PlayerSimulator simulator(manifest);
  abr::FixedBitrate policy(0, "Bottom");
  const auto playback = simulator.run(policy, make_session(20.0, 40.0));
  const auto metrics = compute_metrics("Bottom", 1, playback, manifest,
                                       qoe::QoeModel{}, power::PowerModel{});
  EXPECT_NEAR(metrics.extra_energy_j, 0.0, 1e-6);
}

TEST(EvaluationTest, ProducesAllAlgorithmRows) {
  Evaluation evaluation;
  const auto result = evaluation.run(mini_sessions());
  const auto algos = result.algorithms();
  ASSERT_EQ(algos.size(), 5U);
  EXPECT_EQ(algos[0], "Youtube");
  EXPECT_EQ(algos[4], "Optimal");
  EXPECT_EQ(result.rows.size(), 10U);  // 5 algorithms x 2 sessions
  EXPECT_THROW(result.row("Nope", 1), std::out_of_range);
}

TEST(EvaluationTest, RejectsANonFiniteOrNonPositiveSegmentDuration) {
  for (const double bad : {0.0, -2.0, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    EvaluationConfig config;
    config.segment_duration_s = bad;
    EXPECT_THROW(Evaluation{config}, std::invalid_argument) << bad;
  }
}

TEST(EvaluationTest, IncludeBolaAddsRows) {
  EvaluationConfig config;
  config.include_bola = true;
  Evaluation evaluation(config);
  const auto result = evaluation.run(mini_sessions());
  EXPECT_EQ(result.algorithms().size(), 6U);
}

TEST(EvaluationTest, YoutubeConsumesTheMostEnergy) {
  Evaluation evaluation;
  const auto result = evaluation.run(mini_sessions());
  for (int session_id : {1, 2}) {
    const double youtube = result.row("Youtube", session_id).total_energy_j;
    for (const auto& algo : {"FESTIVE", "BBA", "Ours", "Optimal"}) {
      EXPECT_LE(result.row(algo, session_id).total_energy_j, youtube + 1e-6)
          << algo << " on session " << session_id;
    }
  }
}

TEST(EvaluationTest, OursSavesMoreThanThroughputBaselines) {
  // The headline Fig. 5(b) ordering: Ours/Optimal >> FESTIVE/BBA on energy
  // saving.
  Evaluation evaluation;
  const auto result = evaluation.run(mini_sessions());
  const double ours = result.mean_energy_saving("Ours");
  const double optimal = result.mean_energy_saving("Optimal");
  const double festive = result.mean_energy_saving("FESTIVE");
  const double bba = result.mean_energy_saving("BBA");
  EXPECT_GT(ours, festive);
  EXPECT_GT(ours, bba);
  EXPECT_GE(optimal, ours - 0.05);  // optimal ~ upper bound (5% slack: the
                                    // planner's oracle model is not the
                                    // simulator)
}

TEST(EvaluationTest, QoeDegradationIsSmall) {
  // Fig. 6(c): a few percent QoE degradation vs YouTube for all adaptive
  // algorithms.
  Evaluation evaluation;
  const auto result = evaluation.run(mini_sessions());
  for (const auto& algo : {"FESTIVE", "BBA", "Ours", "Optimal"}) {
    EXPECT_LT(result.mean_qoe_degradation(algo), 0.15) << algo;
  }
}

TEST(EvaluationTest, RatioFavoursContextAwareness) {
  // Fig. 7: energy-saving / QoE-degradation ratio of Ours beats FESTIVE and
  // BBA.
  Evaluation evaluation;
  const auto result = evaluation.run(mini_sessions());
  const double ours = result.saving_degradation_ratio("Ours");
  const double festive = result.saving_degradation_ratio("FESTIVE");
  const double bba = result.saving_degradation_ratio("BBA");
  if (festive > 0.0) {
    EXPECT_GT(ours, festive);
  }
  if (bba > 0.0) {
    EXPECT_GT(ours, bba);
  }
}

TEST(EvaluationTest, ContextAwareAblationSavesEnergyOnShakySession) {
  // Disabling the vibration term makes "Ours" pick higher bitrates on the
  // shaky session -> more energy.
  EvaluationConfig aware_config;
  EvaluationConfig blind_config;
  blind_config.context_aware = false;
  const auto sessions = mini_sessions();
  const auto aware = Evaluation(aware_config).run(sessions);
  const auto blind = Evaluation(blind_config).run(sessions);
  EXPECT_LE(aware.row("Ours", 2).total_energy_j,
            blind.row("Ours", 2).total_energy_j + 1e-6);
}

TEST(EvaluationTest, ManifestForSpecUsesEvaluationLadder) {
  Evaluation evaluation;
  const auto manifest = evaluation.manifest_for(media::evaluation_sessions()[0]);
  EXPECT_EQ(manifest.ladder().size(), 14U);
  EXPECT_DOUBLE_EQ(manifest.segment_duration_s(), 2.0);
  EXPECT_DOUBLE_EQ(manifest.total_duration_s(), 198.0);
}

TEST(EvaluationTest, ExactKeyOnlineCacheIsBitIdenticalToUncached) {
  // The rich-engine default cache mode is exact keys: memoization is a pure
  // speedup, so every row must come out bit-for-bit the same as uncached.
  EvaluationConfig cached_config;
  cached_config.online_cache = core::DecisionCacheConfig{};  // exact = true
  const auto sessions = mini_sessions();
  const auto uncached = Evaluation{}.run(sessions);
  const auto cached = Evaluation(cached_config).run(sessions);
  ASSERT_EQ(cached.rows.size(), uncached.rows.size());
  for (std::size_t i = 0; i < cached.rows.size(); ++i) {
    const auto& a = cached.rows[i];
    const auto& b = uncached.rows[i];
    EXPECT_EQ(a.algorithm, b.algorithm);
    EXPECT_EQ(a.session_id, b.session_id);
    EXPECT_EQ(a.total_energy_j, b.total_energy_j);
    EXPECT_EQ(a.mean_qoe, b.mean_qoe);
    EXPECT_EQ(a.mean_bitrate_mbps, b.mean_bitrate_mbps);
    EXPECT_EQ(a.rebuffer_s, b.rebuffer_s);
    EXPECT_EQ(a.switch_count, b.switch_count);
  }
}

TEST(EvaluationTest, InvalidConfigThrows) {
  EvaluationConfig config;
  config.segment_duration_s = 0.0;
  EXPECT_THROW(Evaluation{config}, std::invalid_argument);
}

TEST(EvaluationTest, OptimalPlansOnTheVibrationSeriesItIsReplayedOn) {
  // With a non-default estimator the Optimal plan must be built from the
  // same vibration series its replay is priced on: the track under
  // config.player.vibration, not a default-config one.
  EvaluationConfig config;
  config.player.vibration.window_s = 2.0;
  const Evaluation evaluation(config);
  // Table V trace 4: its window-2 and default-window series lead the planner
  // to different plans.
  const std::vector<trace::SessionTraces> sessions = {
      trace::build_session(media::evaluation_sessions()[3])};
  const auto result = evaluation.run(sessions);
  const core::Objective objective = make_objective(config);
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };

  bool plans_depend_on_the_estimator = false;
  for (const auto& session : sessions) {
    const auto manifest = evaluation.manifest_for(session.spec);
    const sensors::VibrationTrack track(session.accel, config.player.vibration);
    const core::OptimalPlanner planner(objective);
    const core::OptimalPlan plan =
        planner.plan(core::build_task_environments(manifest, session, track));
    plans_depend_on_the_estimator |=
        plan.levels !=
        planner.plan(core::build_task_environments(manifest, session)).levels;

    core::PlannedPolicy optimal(plan);
    const auto playback =
        player::PlayerSimulator(manifest, config.player).run(optimal, session);
    const SessionMetrics expected =
        compute_metrics(optimal.name(), session.spec.id, playback, manifest,
                        objective.qoe_model(), objective.power_model());
    const SessionMetrics& row = result.row("Optimal", session.spec.id);
    EXPECT_EQ(bits(row.total_energy_j), bits(expected.total_energy_j));
    EXPECT_EQ(bits(row.base_energy_j), bits(expected.base_energy_j));
    EXPECT_EQ(bits(row.extra_energy_j), bits(expected.extra_energy_j));
    EXPECT_EQ(bits(row.mean_qoe), bits(expected.mean_qoe));
    EXPECT_EQ(bits(row.mean_bitrate_mbps), bits(expected.mean_bitrate_mbps));
    EXPECT_EQ(bits(row.downloaded_mb), bits(expected.downloaded_mb));
    EXPECT_EQ(bits(row.rebuffer_s), bits(expected.rebuffer_s));
    EXPECT_EQ(bits(row.startup_delay_s), bits(expected.startup_delay_s));
    EXPECT_EQ(row.switch_count, expected.switch_count);
    EXPECT_EQ(row.rebuffer_events, expected.rebuffer_events);
  }
  // Otherwise this test could not tell the two series apart.
  EXPECT_TRUE(plans_depend_on_the_estimator);
}

}  // namespace
}  // namespace eacs::sim
