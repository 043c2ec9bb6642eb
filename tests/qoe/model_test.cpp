#include "eacs/qoe/model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "eacs/media/bitrate_ladder.h"

namespace eacs::qoe {
namespace {

TEST(QoeModelTest, OriginalQualityMonotoneInBitrate) {
  const QoeModel model;
  double prev = 0.0;
  for (double r : {0.1, 0.375, 0.75, 1.5, 3.0, 5.8}) {
    const double q = model.original_quality(r);
    EXPECT_GT(q, prev);
    prev = q;
  }
}

TEST(QoeModelTest, OriginalQualitySaturatesAtHighBitrate) {
  // The paper: QoE does not improve much beyond 720p on a phone.
  const QoeModel model;
  const double gain_low = model.original_quality(0.75) - model.original_quality(0.375);
  const double gain_high = model.original_quality(5.8) - model.original_quality(3.0);
  EXPECT_GT(gain_low, 2.0 * gain_high);
}

TEST(QoeModelTest, QuietRoom1080pTo480pDropMatchesPaper) {
  // Fig. 1(b): ~12% QoE drop from 1080p to 480p in a quiet room.
  const QoeModel model;
  const double q1080 = model.original_quality(5.8);
  const double q480 = model.original_quality(1.5);
  const double drop = (q1080 - q480) / q1080;
  EXPECT_GT(drop, 0.05);
  EXPECT_LT(drop, 0.15);
}

TEST(QoeModelTest, VehicleDropMuchSmallerThanRoomDrop) {
  // Fig. 1(b): on a moving vehicle (v ~ 6) the same 1080p->480p drop is only
  // ~4% because vibration hurts high bitrates more.
  const QoeModel model;
  const double v = 6.0;
  const double room_drop = (model.original_quality(5.8) - model.original_quality(1.5)) /
                           model.original_quality(5.8);
  const double vehicle_drop =
      (model.perceived_quality(5.8, v) - model.perceived_quality(1.5, v)) /
      model.perceived_quality(5.8, v);
  EXPECT_LT(vehicle_drop, 0.6 * room_drop);
}

TEST(QoeModelTest, ImpairmentMatchesPaperSpotChecks) {
  // Fig. 2(c) spot values quoted in the text.
  const QoeModel model;
  EXPECT_NEAR(model.vibration_impairment(2.0, 1.5), 0.049, 0.01);
  EXPECT_NEAR(model.vibration_impairment(6.0, 1.5), 0.184, 0.02);
  EXPECT_NEAR(model.vibration_impairment(2.0, 5.8), 0.174, 0.02);
  EXPECT_NEAR(model.vibration_impairment(6.0, 5.8), 0.549, 0.04);
}

TEST(QoeModelTest, ImpairmentZeroAtZeroVibrationOrBitrate) {
  const QoeModel model;
  EXPECT_DOUBLE_EQ(model.vibration_impairment(0.0, 5.8), 0.0);
  EXPECT_DOUBLE_EQ(model.vibration_impairment(-1.0, 5.8), 0.0);
  EXPECT_DOUBLE_EQ(model.vibration_impairment(6.0, 0.0), 0.0);
}

TEST(QoeModelTest, ImpairmentMonotoneInBothArguments) {
  const QoeModel model;
  EXPECT_LT(model.vibration_impairment(2.0, 3.0), model.vibration_impairment(4.0, 3.0));
  EXPECT_LT(model.vibration_impairment(4.0, 1.0), model.vibration_impairment(4.0, 3.0));
}

TEST(QoeModelTest, PerceivedQualityClampedToMosRange) {
  QoeModelParams params;
  params.kappa = 10.0;  // absurd impairment
  const QoeModel model(params);
  EXPECT_GE(model.perceived_quality(5.8, 7.0), 1.0);
  EXPECT_LE(model.perceived_quality(5.8, 0.0), 5.0);
  EXPECT_DOUBLE_EQ(QoeModel().original_quality(0.0), 1.0);
  EXPECT_DOUBLE_EQ(QoeModel().original_quality(1e-9), 1.0);  // floor clamp
}

TEST(QoeModelTest, SwitchImpairment) {
  const QoeModel model;
  EXPECT_DOUBLE_EQ(model.switch_impairment(3.0, 0.0), 0.0);   // first segment
  EXPECT_DOUBLE_EQ(model.switch_impairment(3.0, 3.0), 0.0);   // no change
  const double up = model.switch_impairment(5.8, 1.5);
  const double down = model.switch_impairment(1.5, 5.8);
  EXPECT_DOUBLE_EQ(up, down);  // symmetric in |q0 delta|
  EXPECT_GT(up, 0.0);
}

TEST(QoeModelTest, SegmentQoeComposition) {
  const QoeModel model;
  SegmentContext context;
  context.bitrate_mbps = 3.0;
  context.vibration = 4.0;
  context.prev_bitrate_mbps = 1.5;
  context.rebuffer_s = 0.5;
  const double expected = model.original_quality(3.0) -
                          model.vibration_impairment(4.0, 3.0) -
                          model.switch_impairment(3.0, 1.5) -
                          model.params().rebuffer_penalty_per_s * 0.5;
  EXPECT_DOUBLE_EQ(model.segment_qoe(context), expected);
}

TEST(QoeModelTest, RebufferingHurts) {
  const QoeModel model;
  SegmentContext clean{3.0, 2.0, 3.0, 0.0};
  SegmentContext stalled{3.0, 2.0, 3.0, 2.0};
  EXPECT_GT(model.segment_qoe(clean), model.segment_qoe(stalled) + 1.0);
}

TEST(QoeModelTest, ContextAwareSweetSpotUnderVibration) {
  // Under heavy vibration the perceived-quality gain from the top bitrate is
  // tiny: q(5.8) - q(1.5) shrinks by an order of magnitude vs the quiet room.
  const QoeModel model;
  const double quiet_gain = model.perceived_quality(5.8, 0.0) -
                            model.perceived_quality(1.5, 0.0);
  const double shaky_gain = model.perceived_quality(5.8, 7.0) -
                            model.perceived_quality(1.5, 7.0);
  EXPECT_LT(shaky_gain, 0.5 * quiet_gain);
}

/// Bit pattern of a double: equal patterns are equal %a dumps, NaN included.
std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(QoeModelTest, RungFormMatchesSegmentContextBitwise) {
  // The rung form, the SegmentContext form and the chain restated from the
  // scalar terms (original quality, I(v, r), switch, rebuffer, then clamp)
  // agree bit for bit — NaN results included — over every evaluation rung,
  // zero and negative bitrates, vibrations at and below zero, one whose
  // factor underflows, NaN and typical ones, and no / zero / rung previous
  // bitrates.
  const QoeModel model;
  const QoeModelParams& p = model.params();
  std::vector<double> bitrates = {0.0, -1.5};
  const auto ladder = media::BitrateLadder::evaluation14();
  for (std::size_t l = 0; l < ladder.size(); ++l) bitrates.push_back(ladder.bitrate(l));
  const double vibrations[] = {0.0, -2.0, 1e-300,
                               std::numeric_limits<double>::quiet_NaN(), 3.7};
  for (const double r : bitrates) {
    const RungQuality rung = model.rung(r);
    EXPECT_EQ(bits(rung.bitrate_mbps), bits(r));
    EXPECT_EQ(bits(rung.original), bits(model.original_quality(r)));
    for (const double v : vibrations) {
      const double factor = model.vibration_factor(v);
      EXPECT_EQ(bits(model.vibration_impairment(rung, factor)),
                bits(model.vibration_impairment(v, r)))
          << "r " << r << " v " << v;
      for (const double prev_r : {-1.0, 0.0, 0.75, r}) {
        const RungQuality prev = model.rung(prev_r);
        const RungQuality* prev_ptr = prev_r < 0.0 ? nullptr : &prev;
        for (const double rebuffer : {0.0, 1.25}) {
          SegmentContext context;
          context.bitrate_mbps = r;
          context.vibration = v;
          context.prev_bitrate_mbps = prev_r < 0.0 ? 0.0 : prev_r;
          context.rebuffer_s = rebuffer;
          double chain = model.original_quality(r);
          chain -= model.vibration_impairment(v, r);
          chain -= model.switch_impairment(r, context.prev_bitrate_mbps);
          chain -= p.rebuffer_penalty_per_s * std::max(0.0, rebuffer);
          chain = std::clamp(chain, p.mos_min, p.mos_max);
          const double from_rungs = model.segment_qoe(rung, prev_ptr, factor, rebuffer);
          EXPECT_EQ(bits(from_rungs), bits(model.segment_qoe(context)))
              << "r " << r << " v " << v << " prev " << prev_r;
          EXPECT_EQ(bits(from_rungs), bits(chain))
              << "r " << r << " v " << v << " prev " << prev_r;
        }
      }
    }
  }
}

TEST(QoeModelTest, InvalidParamsThrow) {
  QoeModelParams params;
  params.mos_min = 5.0;
  params.mos_max = 1.0;
  EXPECT_THROW(QoeModel{params}, std::invalid_argument);
  QoeModelParams negative;
  negative.kappa = -1.0;
  EXPECT_THROW(QoeModel{negative}, std::invalid_argument);
}

}  // namespace
}  // namespace eacs::qoe
