// DecisionCache export_state/restore_state: the checkpoint side of the
// planner memoization layer (DESIGN §14). The contract is continuation
// equivalence — export mid-stream, restore into a fresh cache with the same
// config, keep consulting: every hit/miss/eviction and every returned level
// must match the never-exported cache exactly, because the restored table
// has the identical slot layout, not just the identical key set.
#include <cstdint>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "eacs/core/decision_cache.h"

namespace eacs::core {
namespace {

DecisionCacheConfig quantized_config(std::size_t capacity) {
  DecisionCacheConfig config;
  config.exact = false;
  config.capacity = capacity;
  return config;
}

DecisionSnapshot snapshot(int i) {
  DecisionSnapshot s;
  s.buffer_s = 3.0 * (i % 11);
  s.bandwidth_mbps = 0.4 + 0.9 * (i % 17);
  s.vibration = 0.3 * (i % 5);
  s.signal_dbm = -110.0 + 2.0 * (i % 23);
  s.segments_remaining = 1 + (i % 7);
  if (i % 3 != 0) s.prev_level = static_cast<std::size_t>(i % 4);
  s.ladder_id = 42;
  return s;
}

// A deterministic stand-in solver keyed on the canonical inputs.
std::size_t fake_solve(const CanonicalDecision& canonical) {
  return static_cast<std::size_t>(canonical.key.hash() % 5);
}

TEST(DecisionCacheStateTest, RoundTripPreservesContentsAndCounters) {
  DecisionCache cache(quantized_config(64));
  for (int i = 0; i < 500; ++i) {
    cache.level_for(cache.canonicalize(snapshot(i)),
                    [](const CanonicalDecision& c) { return fake_solve(c); });
  }
  const DecisionCacheState state = cache.export_state();
  EXPECT_EQ(state.stats.hits, cache.stats().hits);
  EXPECT_EQ(state.stats.misses, cache.stats().misses);
  EXPECT_EQ(state.stats.evictions, cache.stats().evictions);
  EXPECT_EQ(state.entries.size(), cache.entries());

  DecisionCache restored(quantized_config(64));
  restored.restore_state(state);
  EXPECT_EQ(restored.entries(), cache.entries());
  EXPECT_EQ(restored.stats().hits, cache.stats().hits);
  EXPECT_EQ(restored.stats().misses, cache.stats().misses);
  EXPECT_EQ(restored.stats().evictions, cache.stats().evictions);
  // Exporting the restored cache reproduces the state exactly.
  const DecisionCacheState re_exported = restored.export_state();
  EXPECT_EQ(re_exported.entries, state.entries);
}

TEST(DecisionCacheStateTest, RestoredCacheContinuesIdentically) {
  // Split the consultation stream: [0, 400) into the original, export,
  // restore, then [400, 1000) into both — hits, misses, evictions, and
  // levels must track bit-for-bit even through direct-mapped displacement.
  const auto config = quantized_config(32);  // small: force evictions
  DecisionCache uninterrupted(config);
  DecisionCache first(config);
  for (int i = 0; i < 400; ++i) {
    uninterrupted.level_for(
        uninterrupted.canonicalize(snapshot(i)),
        [](const CanonicalDecision& c) { return fake_solve(c); });
    first.level_for(first.canonicalize(snapshot(i)),
                    [](const CanonicalDecision& c) { return fake_solve(c); });
  }
  DecisionCache resumed(config);
  resumed.restore_state(first.export_state());
  for (int i = 400; i < 1000; ++i) {
    const std::size_t a = uninterrupted.level_for(
        uninterrupted.canonicalize(snapshot(i)),
        [](const CanonicalDecision& c) { return fake_solve(c); });
    const std::size_t b = resumed.level_for(
        resumed.canonicalize(snapshot(i)),
        [](const CanonicalDecision& c) { return fake_solve(c); });
    EXPECT_EQ(a, b);
  }
  EXPECT_EQ(resumed.stats().hits, uninterrupted.stats().hits);
  EXPECT_EQ(resumed.stats().misses, uninterrupted.stats().misses);
  EXPECT_EQ(resumed.stats().evictions, uninterrupted.stats().evictions);
  EXPECT_EQ(resumed.entries(), uninterrupted.entries());
}

TEST(DecisionCacheStateTest, RestoreReplacesExistingContents) {
  DecisionCache donor(quantized_config(16));
  donor.level_for(donor.canonicalize(snapshot(1)),
                  [](const CanonicalDecision& c) { return fake_solve(c); });
  const DecisionCacheState state = donor.export_state();

  DecisionCache target(quantized_config(16));
  for (int i = 0; i < 100; ++i) {
    target.level_for(target.canonicalize(snapshot(i)),
                     [](const CanonicalDecision& c) { return fake_solve(c); });
  }
  target.restore_state(state);
  EXPECT_EQ(target.entries(), donor.entries());
  EXPECT_EQ(target.stats().misses, donor.stats().misses);
  EXPECT_EQ(target.export_state().entries, state.entries);
}

TEST(DecisionCacheStateTest, EmptyAndZeroCapacityStates) {
  DecisionCache empty(quantized_config(16));
  const DecisionCacheState state = empty.export_state();
  EXPECT_TRUE(state.entries.empty());
  DecisionCache restored(quantized_config(16));
  restored.restore_state(state);
  EXPECT_EQ(restored.entries(), 0U);

  // capacity 0 (quantize-only) exports an empty table but real counters.
  DecisionCache uncached(quantized_config(0));
  uncached.level_for(uncached.canonicalize(snapshot(3)),
                     [](const CanonicalDecision& c) { return fake_solve(c); });
  const DecisionCacheState uncached_state = uncached.export_state();
  EXPECT_TRUE(uncached_state.entries.empty());
  EXPECT_EQ(uncached_state.stats.misses, 1U);
}

TEST(DecisionCacheStateTest, RestoreValidates) {
  DecisionCache cache(quantized_config(8));
  cache.level_for(cache.canonicalize(snapshot(1)),
                  [](const CanonicalDecision& c) { return fake_solve(c); });
  {
    DecisionCacheState state = cache.export_state();
    state.entries[0].slot = 8;  // outside capacity
    DecisionCache victim(quantized_config(8));
    EXPECT_THROW(victim.restore_state(state), std::invalid_argument);
  }
  {
    DecisionCacheState state = cache.export_state();
    state.entries.push_back(state.entries[0]);  // duplicate slot
    DecisionCache victim(quantized_config(8));
    EXPECT_THROW(victim.restore_state(state), std::invalid_argument);
  }
}

TEST(DecisionCacheStateTest, RestoreRejectsAnEntryOutsideItsHomeSlot) {
  // A one-key state whose entry sits at slot 37 of 64, moved to slot 38: a
  // lookup of that key probes slot 37 and could never hit it, and the next
  // insert at 38 would count an eviction the uninterrupted run never saw.
  DecisionCache source(quantized_config(64));
  int i = 0;
  while (source.canonicalize(snapshot(i)).key.hash() % 64 != 37) ++i;
  source.level_for(source.canonicalize(snapshot(i)),
                   [](const CanonicalDecision& c) { return fake_solve(c); });
  DecisionCacheState moved = source.export_state();
  ASSERT_EQ(moved.entries.size(), 1U);
  ASSERT_EQ(moved.entries[0].slot, 37U);
  moved.entries[0].slot = 38;

  DecisionCache cache(quantized_config(64));
  for (int j = 0; j < 200; ++j) {
    cache.level_for(cache.canonicalize(snapshot(j)),
                    [](const CanonicalDecision& c) { return fake_solve(c); });
  }
  const DecisionCacheState before = cache.export_state();
  EXPECT_THROW(cache.restore_state(moved), std::invalid_argument);
  EXPECT_EQ(cache.export_state(), before);
}

TEST(DecisionCacheStateTest, RejectedRestoreLeavesTheCacheUntouched) {
  // A state that fails validation must not half-replace the table: the
  // duplicate sits at the end, after entries a non-atomic restore would
  // already have written over the old contents.
  DecisionCache cache(quantized_config(64));
  for (int i = 0; i < 200; ++i) {
    cache.level_for(cache.canonicalize(snapshot(i)),
                    [](const CanonicalDecision& c) { return fake_solve(c); });
  }
  DecisionCache donor(quantized_config(64));
  for (int i = 1000; i < 1040; ++i) {
    donor.level_for(donor.canonicalize(snapshot(i)),
                    [](const CanonicalDecision& c) { return fake_solve(c); });
  }
  const DecisionCacheState before = cache.export_state();
  ASSERT_NE(donor.export_state(), before);

  DecisionCacheState duplicate = donor.export_state();
  duplicate.entries.push_back(duplicate.entries.front());
  EXPECT_THROW(cache.restore_state(duplicate), std::invalid_argument);
  EXPECT_EQ(cache.export_state(), before);
  EXPECT_EQ(cache.entries(), before.entries.size());

  DecisionCacheState out_of_range = donor.export_state();
  out_of_range.entries.back().slot = 64;
  EXPECT_THROW(cache.restore_state(out_of_range), std::invalid_argument);
  EXPECT_EQ(cache.export_state(), before);

  // The untouched cache still serves what it held.
  const DecisionKey held = before.entries.front().key;
  EXPECT_EQ(cache.find(held), before.entries.front().level);
}

}  // namespace
}  // namespace eacs::core
