// Checkpoint-safe state round-trips for the streaming aggregators and the
// Rng engine (DESIGN §14). The property that matters downstream is
// *continuation equivalence*: feed half a stream, state()/restore() into a
// fresh object, feed the other half — every subsequent observable must be
// bit-identical to the never-interrupted aggregator, including merges.
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "eacs/util/rng.h"
#include "eacs/util/stats.h"

namespace eacs {
namespace {

std::vector<double> stream(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<double> xs;
  xs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs.push_back(rng.uniform(-5.0, 50.0));
  }
  return xs;
}

// ---------------------------------------------------------------------------
// Rng

TEST(RngStateTest, RoundTripContinuesTheExactSequence) {
  Rng rng(0xABCDEF);
  for (int i = 0; i < 100; ++i) (void)rng.uniform();
  (void)rng.normal();  // leave a cached Box-Muller value in flight

  const RngState state = rng.state();
  Rng restored(1);  // different seed: restore must fully overwrite
  restored.restore(state);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(restored.uniform(), rng.uniform());
    EXPECT_EQ(restored.normal(), rng.normal());  // incl. the cached half
  }
}

TEST(RngStateTest, RestoreRejectsAllZeroWords) {
  RngState state;  // all-zero: xoshiro's absorbing state
  Rng rng(7);
  EXPECT_THROW(rng.restore(state), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// RunningStats

TEST(RunningStatsStateTest, SplitStreamMatchesUninterrupted) {
  const std::vector<double> xs = stream(11, 1000);
  RunningStats uninterrupted;
  for (const double x : xs) uninterrupted.add(x);

  RunningStats first;
  for (std::size_t i = 0; i < 500; ++i) first.add(xs[i]);
  RunningStats resumed;
  resumed.restore(first.state());
  for (std::size_t i = 500; i < xs.size(); ++i) resumed.add(xs[i]);

  EXPECT_EQ(resumed.count(), uninterrupted.count());
  EXPECT_EQ(resumed.mean(), uninterrupted.mean());
  EXPECT_EQ(resumed.variance(), uninterrupted.variance());
  EXPECT_EQ(resumed.sum(), uninterrupted.sum());
  EXPECT_EQ(resumed.min(), uninterrupted.min());
  EXPECT_EQ(resumed.max(), uninterrupted.max());
}

TEST(RunningStatsStateTest, RestoredShardMergesLikeTheOriginal) {
  // serialize -> restore -> merge must equal never-serialized merge, bitwise.
  const std::vector<double> xs = stream(12, 400);
  RunningStats left, right;
  for (std::size_t i = 0; i < 200; ++i) left.add(xs[i]);
  for (std::size_t i = 200; i < xs.size(); ++i) right.add(xs[i]);

  RunningStats reference = left;
  reference.merge(right);

  RunningStats restored_left, restored_right;
  restored_left.restore(left.state());
  restored_right.restore(right.state());
  restored_left.merge(restored_right);

  EXPECT_EQ(restored_left.count(), reference.count());
  EXPECT_EQ(restored_left.mean(), reference.mean());
  EXPECT_EQ(restored_left.variance(), reference.variance());
  EXPECT_EQ(restored_left.sum(), reference.sum());
}

// ---------------------------------------------------------------------------
// P2Quantile

TEST(P2QuantileStateTest, SplitStreamMatchesUninterrupted) {
  for (const double p : {0.1, 0.5, 0.9}) {
    const std::vector<double> xs = stream(13, 1000);
    P2Quantile uninterrupted(p);
    for (const double x : xs) uninterrupted.add(x);

    P2Quantile first(p);
    for (std::size_t i = 0; i < 333; ++i) first.add(xs[i]);
    P2Quantile resumed(p);
    resumed.restore(first.state());
    for (std::size_t i = 333; i < xs.size(); ++i) resumed.add(xs[i]);

    EXPECT_EQ(resumed.count(), uninterrupted.count());
    EXPECT_EQ(resumed.value(), uninterrupted.value());
  }
}

TEST(P2QuantileStateTest, RoundTripBelowFiveSamples) {
  // The exact-mode prefix (fewer than 5 samples) must survive the trip too.
  P2Quantile q(0.5);
  q.add(3.0);
  q.add(1.0);
  P2Quantile restored(0.5);
  restored.restore(q.state());
  restored.add(2.0);
  q.add(2.0);
  EXPECT_EQ(restored.value(), q.value());
  EXPECT_EQ(restored.count(), q.count());
}

TEST(P2QuantileStateTest, RestoreValidates) {
  P2Quantile q(0.5);
  for (int i = 0; i < 50; ++i) q.add(static_cast<double>(i));
  P2QuantileState state = q.state();
  state.p = 1.5;  // outside (0, 1)
  P2Quantile victim(0.5);
  EXPECT_THROW(victim.restore(state), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// ReservoirSampler

TEST(ReservoirSamplerStateTest, SplitStreamMatchesUninterrupted) {
  const std::vector<double> xs = stream(14, 5000);
  ReservoirSampler uninterrupted(64, 0xFEED);
  for (const double x : xs) uninterrupted.add(x);

  ReservoirSampler first(64, 0xFEED);
  for (std::size_t i = 0; i < 2500; ++i) first.add(xs[i]);
  ReservoirSampler resumed(64, 0x1);  // seed overwritten by restore
  resumed.restore(first.state());
  for (std::size_t i = 2500; i < xs.size(); ++i) resumed.add(xs[i]);

  EXPECT_EQ(resumed.count(), uninterrupted.count());
  ASSERT_EQ(resumed.sample().size(), uninterrupted.sample().size());
  for (std::size_t i = 0; i < resumed.sample().size(); ++i) {
    EXPECT_EQ(resumed.sample()[i], uninterrupted.sample()[i]);
  }
  for (const double p : {0.05, 0.5, 0.95}) {
    EXPECT_EQ(resumed.quantile(p), uninterrupted.quantile(p));
  }
}

TEST(ReservoirSamplerStateTest, RestoredShardMergesLikeTheOriginal) {
  // The fleet merge path: region reservoirs fold into the fleet reservoir.
  // Restored shards must merge bit-identically to never-serialized ones —
  // the merge draws from *both* Rng engines, so the engine state matters.
  const std::vector<double> xs = stream(15, 3000);
  ReservoirSampler left(32, 0xAA);
  ReservoirSampler right(32, 0xBB);
  for (std::size_t i = 0; i < 1500; ++i) left.add(xs[i]);
  for (std::size_t i = 1500; i < xs.size(); ++i) right.add(xs[i]);

  ReservoirSampler reference(32, 0xCC);
  reference.merge(left);
  reference.merge(right);

  ReservoirSampler restored_left(32, 0x1), restored_right(32, 0x2);
  restored_left.restore(left.state());
  restored_right.restore(right.state());
  ReservoirSampler target(32, 0xCC);
  target.merge(restored_left);
  target.merge(restored_right);

  EXPECT_EQ(target.count(), reference.count());
  ASSERT_EQ(target.sample().size(), reference.sample().size());
  for (std::size_t i = 0; i < target.sample().size(); ++i) {
    EXPECT_EQ(target.sample()[i], reference.sample()[i]);
  }
}

TEST(ReservoirSamplerStateTest, RestoreValidates) {
  ReservoirSampler sampler(8, 42);
  for (int i = 0; i < 100; ++i) sampler.add(static_cast<double>(i));
  {
    ReservoirSamplerState state = sampler.state();
    state.capacity = 0;
    ReservoirSampler victim(8, 1);
    EXPECT_THROW(victim.restore(state), std::invalid_argument);
  }
  {
    ReservoirSamplerState state = sampler.state();
    state.items.push_back(1.0);  // more items than capacity
    ReservoirSampler victim(8, 1);
    EXPECT_THROW(victim.restore(state), std::invalid_argument);
  }
  {
    ReservoirSamplerState state = sampler.state();
    state.count = 3;  // fewer seen than retained
    ReservoirSampler victim(8, 1);
    EXPECT_THROW(victim.restore(state), std::invalid_argument);
  }
}

TEST(ReservoirSamplerStateTest, RestoreReservesOnlyWhatItKeeps) {
  // A restored capacity is a bound on the kept sample, not a request for
  // storage: 2^62 doubles is past vector::max_size, so reserving it up front
  // would throw std::length_error (and a merely large one would allocate).
  ReservoirSampler donor(8, 42);
  ReservoirSamplerState state = donor.state();
  state.capacity = std::size_t{1} << 62;
  state.count = 0;
  state.items.clear();
  ReservoirSampler restored(8, 1);
  EXPECT_NO_THROW(restored.restore(state));
  EXPECT_EQ(restored.capacity(), std::size_t{1} << 62);
  restored.add(2.5);
  restored.add(-1.0);
  EXPECT_EQ(restored.count(), 2U);
  ASSERT_EQ(restored.sample().size(), 2U);
  EXPECT_EQ(restored.sample()[0], 2.5);
  EXPECT_EQ(restored.sample()[1], -1.0);
}

}  // namespace
}  // namespace eacs
