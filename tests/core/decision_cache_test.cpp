// DecisionCache unit semantics: canonicalization math (linear / log /
// prev-rung buckets, exact-bit degradation for non-finite inputs),
// deterministic direct-mapped storage, exact hit/miss/eviction counting,
// CostStatsScope mirroring, and config validation. The cross-cutting
// claim — cache-on decisions bitwise equal cache-off decisions on the same
// quantized inputs — lives in tests/property/decision_cache_properties_test.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "eacs/core/cost_stats.h"
#include "eacs/core/decision_cache.h"
#include "eacs/util/rng.h"

namespace eacs::core {
namespace {

DecisionCacheConfig quantized_config(std::size_t capacity = 64) {
  DecisionCacheConfig config;
  config.exact = false;
  config.capacity = capacity;
  return config;
}

DecisionSnapshot sample_snapshot() {
  DecisionSnapshot snapshot;
  snapshot.buffer_s = 17.3;
  snapshot.bandwidth_mbps = 2.9;
  snapshot.vibration = 0.4;
  snapshot.confidence = 0.8;
  snapshot.signal_dbm = -97.0;
  snapshot.segments_remaining = 5;
  snapshot.prev_level = 3;
  snapshot.ladder_id = 42;
  snapshot.alpha = 0.5;
  return snapshot;
}

TEST(DecisionCacheConfigTest, RejectsNonPositiveBucketWidths) {
  for (auto mutate : {
           +[](DecisionCacheConfig& c) { c.buffer_bucket_s = 0.0; },
           +[](DecisionCacheConfig& c) { c.bandwidth_buckets_per_octave = -1.0; },
           +[](DecisionCacheConfig& c) { c.vibration_bucket = 0.0; },
           +[](DecisionCacheConfig& c) {
             c.confidence_bucket = std::numeric_limits<double>::quiet_NaN();
           },
           +[](DecisionCacheConfig& c) {
             c.signal_bucket_dbm = std::numeric_limits<double>::infinity();
           },
           +[](DecisionCacheConfig& c) { c.prev_level_bucket = 0; },
       }) {
    DecisionCacheConfig config = quantized_config();
    mutate(config);
    EXPECT_THROW(DecisionCache{config}, std::invalid_argument);
  }
  // The same degenerate widths are legal in exact mode: identity
  // canonicalization never reads them.
  DecisionCacheConfig exact;
  exact.buffer_bucket_s = 0.0;
  exact.prev_level_bucket = 0;
  EXPECT_NO_THROW(DecisionCache{exact});
}

TEST(DecisionCacheTest, ExactModeIsIdentityCanonicalization) {
  DecisionCache cache;  // default config: exact
  const DecisionSnapshot snapshot = sample_snapshot();
  const CanonicalDecision canonical = cache.canonicalize(snapshot);
  EXPECT_EQ(canonical.buffer_s, snapshot.buffer_s);
  EXPECT_EQ(canonical.bandwidth_mbps, snapshot.bandwidth_mbps);
  EXPECT_EQ(canonical.vibration, snapshot.vibration);
  EXPECT_EQ(canonical.confidence, snapshot.confidence);
  EXPECT_EQ(canonical.signal_dbm, snapshot.signal_dbm);
  EXPECT_EQ(canonical.prev_level, snapshot.prev_level);
  // Bitwise-distinct inputs get distinct keys.
  DecisionSnapshot nudged = snapshot;
  nudged.buffer_s = std::nextafter(snapshot.buffer_s, 1e9);
  EXPECT_FALSE(cache.canonicalize(nudged).key == canonical.key);
}

TEST(DecisionCacheTest, QuantizedBucketsUseMidpointRepresentatives) {
  const DecisionCacheConfig config = quantized_config();
  DecisionCache cache(config);
  DecisionSnapshot snapshot = sample_snapshot();
  const CanonicalDecision canonical = cache.canonicalize(snapshot);
  // Linear buckets: index = floor(v / w), representative = midpoint.
  EXPECT_EQ(canonical.key.buffer,
            static_cast<std::int64_t>(
                std::floor(snapshot.buffer_s / config.buffer_bucket_s)));
  EXPECT_DOUBLE_EQ(canonical.buffer_s,
                   (std::floor(snapshot.buffer_s / config.buffer_bucket_s) +
                    0.5) *
                       config.buffer_bucket_s);
  // Log buckets: index = floor(log2(v) * bpo), representative is the
  // geometric bucket centre.
  EXPECT_EQ(canonical.key.bandwidth,
            static_cast<std::int64_t>(
                std::floor(std::log2(snapshot.bandwidth_mbps) *
                           config.bandwidth_buckets_per_octave)));
  EXPECT_GT(canonical.bandwidth_mbps, 0.0);
  // Every raw value in a bucket shares the representative.
  DecisionSnapshot sibling = snapshot;
  sibling.buffer_s += 0.5 * config.buffer_bucket_s;  // same 4s bucket
  const CanonicalDecision sib = cache.canonicalize(sibling);
  EXPECT_EQ(sib.key, canonical.key);
  EXPECT_EQ(sib.buffer_s, canonical.buffer_s);
}

TEST(DecisionCacheTest, CanonicalizationIsIdempotent) {
  DecisionCache cache(quantized_config());
  const CanonicalDecision once = cache.canonicalize(sample_snapshot());
  DecisionSnapshot representative = sample_snapshot();
  representative.buffer_s = once.buffer_s;
  representative.bandwidth_mbps = once.bandwidth_mbps;
  representative.vibration = once.vibration;
  representative.confidence = once.confidence;
  representative.signal_dbm = once.signal_dbm;
  representative.prev_level = once.prev_level;
  const CanonicalDecision twice = cache.canonicalize(representative);
  EXPECT_EQ(twice.key, once.key);
  EXPECT_EQ(twice.buffer_s, once.buffer_s);
  EXPECT_EQ(twice.bandwidth_mbps, once.bandwidth_mbps);
}

TEST(DecisionCacheTest, KeyForMatchesCanonicalizeBitwise) {
  for (const bool exact : {true, false}) {
    DecisionCacheConfig config = quantized_config();
    config.exact = exact;
    config.prev_level_bucket = 2;
    DecisionCache cache(config);
    DecisionSnapshot snapshot = sample_snapshot();
    EXPECT_EQ(cache.key_for(snapshot), cache.canonicalize(snapshot).key);
    snapshot.bandwidth_mbps = 0.0;  // "no throughput" sentinel bucket
    snapshot.prev_level.reset();
    EXPECT_EQ(cache.key_for(snapshot), cache.canonicalize(snapshot).key);
    snapshot.signal_dbm = std::numeric_limits<double>::quiet_NaN();
    EXPECT_EQ(cache.key_for(snapshot), cache.canonicalize(snapshot).key);
  }
}

TEST(DecisionCacheTest, PrevLevelBucketsPairRungsWithFloorRepresentative) {
  DecisionCacheConfig config = quantized_config();
  config.prev_level_bucket = 2;
  DecisionCache cache(config);
  DecisionSnapshot snapshot = sample_snapshot();
  snapshot.prev_level = 7;
  const CanonicalDecision odd = cache.canonicalize(snapshot);
  ASSERT_TRUE(odd.prev_level.has_value());
  EXPECT_EQ(*odd.prev_level, 6u);  // floor to a real rung, never interpolate
  snapshot.prev_level = 6;
  EXPECT_EQ(cache.canonicalize(snapshot).key, odd.key);
  snapshot.prev_level = 5;
  EXPECT_FALSE(cache.canonicalize(snapshot).key == odd.key);
  // No previous rung stays its own key, distinct from any real rung.
  snapshot.prev_level.reset();
  const CanonicalDecision none = cache.canonicalize(snapshot);
  EXPECT_EQ(none.key.prev_level, DecisionKey::kNoPrevLevel);
  EXPECT_FALSE(none.prev_level.has_value());
}

TEST(DecisionCacheTest, NonFiniteInputsDegradeToExactBitKeys) {
  DecisionCache cache(quantized_config());
  DecisionSnapshot nan_snapshot = sample_snapshot();
  nan_snapshot.bandwidth_mbps = std::numeric_limits<double>::quiet_NaN();
  DecisionSnapshot inf_snapshot = sample_snapshot();
  inf_snapshot.bandwidth_mbps = std::numeric_limits<double>::infinity();
  const CanonicalDecision nan_c = cache.canonicalize(nan_snapshot);
  const CanonicalDecision inf_c = cache.canonicalize(inf_snapshot);
  EXPECT_FALSE(nan_c.key == inf_c.key);
  EXPECT_TRUE(std::isnan(nan_c.bandwidth_mbps));
  EXPECT_TRUE(std::isinf(inf_c.bandwidth_mbps));
  // Negative estimates collapse into the single "no throughput" bucket.
  DecisionSnapshot zero = sample_snapshot();
  zero.bandwidth_mbps = 0.0;
  DecisionSnapshot negative = sample_snapshot();
  negative.bandwidth_mbps = -3.0;
  EXPECT_EQ(cache.canonicalize(zero).key, cache.canonicalize(negative).key);
  EXPECT_EQ(cache.canonicalize(negative).bandwidth_mbps, 0.0);
}

TEST(DecisionCacheTest, CountsHitsMissesAndServesStoredLevel) {
  DecisionCache cache(quantized_config());
  const CanonicalDecision canonical = cache.canonicalize(sample_snapshot());
  EXPECT_EQ(cache.find(canonical.key), std::nullopt);
  cache.insert(canonical.key, 4);
  const auto hit = cache.find(canonical.key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 4u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.stats().lookups(), 2u);
  EXPECT_DOUBLE_EQ(cache.stats().hit_rate(), 0.5);
  EXPECT_EQ(cache.entries(), 1u);

  int solves = 0;
  const auto level = cache.level_for(canonical, [&](const CanonicalDecision&) {
    ++solves;
    return std::size_t{9};
  });
  EXPECT_EQ(level, 4u);  // served from cache, solver not consulted
  EXPECT_EQ(solves, 0);

  cache.clear();
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.stats().lookups(), 0u);
  EXPECT_EQ(cache.find(canonical.key), std::nullopt);
}

TEST(DecisionCacheTest, ExternalHitsCountAsCacheHits) {
  CostStats stats;
  DecisionCache cache(quantized_config());
  {
    CostStatsScope scope(stats);
    cache.count_external_hit();
    cache.count_external_hit();
  }
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(stats.cache_hits, 2u);
}

TEST(DecisionCacheTest, CapacityZeroNeverStores) {
  DecisionCache cache(quantized_config(0));
  const CanonicalDecision canonical = cache.canonicalize(sample_snapshot());
  int solves = 0;
  for (int i = 0; i < 3; ++i) {
    const auto level =
        cache.level_for(canonical, [&](const CanonicalDecision&) {
          ++solves;
          return std::size_t{2};
        });
    EXPECT_EQ(level, 2u);
  }
  EXPECT_EQ(solves, 3);  // every lookup misses, nothing is ever stored
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.entries(), 0u);
}

TEST(DecisionCacheTest, CapacityOneThrashesDeterministically) {
  // A 1-slot direct map: alternating keys displace each other every insert,
  // and the eviction count is exact — one per displacement, none for
  // overwriting the same key.
  DecisionCache cache(quantized_config(1));
  DecisionSnapshot a = sample_snapshot();
  DecisionSnapshot b = sample_snapshot();
  b.buffer_s += 10.0 * cache.config().buffer_bucket_s;  // different bucket
  const DecisionKey key_a = cache.canonicalize(a).key;
  const DecisionKey key_b = cache.canonicalize(b).key;
  ASSERT_FALSE(key_a == key_b);

  cache.insert(key_a, 1);
  EXPECT_EQ(cache.stats().evictions, 0u);
  cache.insert(key_a, 1);  // same key: overwrite, not an eviction
  EXPECT_EQ(cache.stats().evictions, 0u);
  cache.insert(key_b, 2);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.find(key_a), std::nullopt);  // displaced
  cache.insert(key_a, 1);
  EXPECT_EQ(cache.stats().evictions, 2u);
  EXPECT_EQ(cache.entries(), 1u);  // entries counts occupancy, not history
}

TEST(DecisionCacheTest, MirrorsCountersIntoCostStatsScope) {
  CostStats stats;
  DecisionCache cache(quantized_config(1));
  const DecisionKey key_a = cache.canonicalize(sample_snapshot()).key;
  DecisionSnapshot other = sample_snapshot();
  other.signal_dbm -= 100.0;
  const DecisionKey key_b = cache.canonicalize(other).key;
  {
    CostStatsScope scope(stats);
    cache.find(key_a);      // miss
    cache.insert(key_a, 0);
    cache.find(key_a);      // hit
    cache.insert(key_b, 1);  // eviction
  }
  cache.find(key_b);  // outside the scope: cache stats only
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_evictions, 1u);
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

// The plain direct-mapped table the cache must behave as: `capacity` slots,
// each empty or holding one key and its level. `occupied_` lists the filled
// slot numbers in order, so checking a 131072-slot table after every step
// does not walk all of it.
class DirectMappedReference {
 public:
  explicit DirectMappedReference(std::size_t capacity) : slots_(capacity) {}

  std::optional<std::size_t> find(const DecisionKey& key) {
    if (!slots_.empty()) {
      const auto& slot = slots_[key.hash() % slots_.size()];
      if (slot && slot->key == key) {
        ++stats_.hits;
        return slot->level;
      }
    }
    ++stats_.misses;
    return std::nullopt;
  }

  void count_external_hit() { ++stats_.hits; }

  void insert(const DecisionKey& key, std::size_t level) {
    if (slots_.empty()) return;
    const std::size_t index = key.hash() % slots_.size();
    auto& slot = slots_[index];
    if (slot && !(slot->key == key)) ++stats_.evictions;
    if (!slot) {
      occupied_.insert(
          std::lower_bound(occupied_.begin(), occupied_.end(), index), index);
    }
    slot = Slot{key, static_cast<std::uint32_t>(level)};
  }

  const DecisionCacheStats& stats() const { return stats_; }

  std::size_t entries() const { return occupied_.size(); }

  DecisionCacheState export_state() const {
    DecisionCacheState state{stats_, {}};
    for (const std::size_t i : occupied_) {
      state.entries.push_back({i, slots_[i]->key, slots_[i]->level});
    }
    return state;
  }

 private:
  struct Slot {
    DecisionKey key;
    std::uint32_t level;
  };
  std::vector<std::optional<Slot>> slots_;
  std::vector<std::size_t> occupied_;
  DecisionCacheStats stats_;
};

DecisionKey pool_key(std::uint64_t i) {
  DecisionKey key;
  key.ladder_id = 42;
  key.buffer = static_cast<std::int64_t>(i % 97);
  key.bandwidth = static_cast<std::int64_t>(i / 97) - 20;
  key.remaining = static_cast<std::int64_t>(i % 5);
  return key;
}

// Distinct keys of which most share a direct-mapped slot with others: up to
// four keys from each of the first 16 shared slots, plus up to 16 keys that
// are alone in theirs. Inserts in the stream then displace each other often.
std::vector<DecisionKey> colliding_pool(std::size_t capacity) {
  const std::uint64_t candidates =
      std::clamp<std::uint64_t>(2 * capacity, 64, std::uint64_t{1} << 18);
  std::vector<std::pair<std::size_t, std::uint64_t>> by_slot;
  by_slot.reserve(candidates);
  for (std::uint64_t i = 0; i < candidates; ++i) {
    by_slot.emplace_back(pool_key(i).hash() % capacity, i);
  }
  std::sort(by_slot.begin(), by_slot.end());
  std::vector<DecisionKey> pool;
  std::size_t shared = 0;
  std::size_t alone = 0;
  for (std::size_t run = 0; run < by_slot.size();) {
    std::size_t end = run;
    while (end < by_slot.size() && by_slot[end].first == by_slot[run].first) {
      ++end;
    }
    if (end - run >= 2 && shared < 16) {
      ++shared;
      for (std::size_t i = run; i < std::min(end, run + 4); ++i) {
        pool.push_back(pool_key(by_slot[i].second));
      }
    } else if (end - run == 1 && alone < 16) {
      ++alone;
      pool.push_back(pool_key(by_slot[run].second));
    }
    run = end;
  }
  return pool;
}

TEST(DecisionCacheTest, MatchesDirectMappedReferenceModel) {
  for (const std::size_t capacity :
       {std::size_t{1}, std::size_t{7}, std::size_t{64}, std::size_t{131072}}) {
    SCOPED_TRACE(capacity);
    const std::vector<DecisionKey> pool = colliding_pool(capacity);
    ASSERT_GE(pool.size(), std::min<std::size_t>(capacity, 4));
    DecisionCache cache(quantized_config(capacity));
    DirectMappedReference reference(capacity);
    Rng rng(0xCAC4E + capacity);
    CostStats mirrored;
    CostStatsScope scope(mirrored);

    // One seeded find / insert / external-hit step on both tables.
    const auto step = [&](DecisionCache& subject) {
      const DecisionKey& key = pool[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(pool.size()) - 1))];
      const std::int64_t op = rng.uniform_int(0, 9);
      if (op < 4) {
        EXPECT_EQ(subject.find(key), reference.find(key));
      } else if (op < 8) {
        const auto level = static_cast<std::size_t>(rng.uniform_int(0, 13));
        subject.insert(key, level);
        reference.insert(key, level);
      } else {
        subject.count_external_hit();
        reference.count_external_hit();
      }
    };

    for (int i = 0; i < 3000; ++i) {
      step(cache);
      ASSERT_EQ(cache.stats(), reference.stats()) << "step " << i;
      ASSERT_EQ(cache.entries(), reference.entries()) << "step " << i;
      ASSERT_EQ(cache.export_state(), reference.export_state()) << "step " << i;
      ASSERT_EQ(mirrored.cache_hits, cache.stats().hits);
      ASSERT_EQ(mirrored.cache_misses, cache.stats().misses);
      ASSERT_EQ(mirrored.cache_evictions, cache.stats().evictions);
    }
    EXPECT_GT(cache.stats().hits, 0U);
    EXPECT_GT(cache.stats().misses, 0U);
    EXPECT_GT(cache.stats().evictions, 0U);

    // One export -> restore round trip, then the restored cache carries on
    // exactly as the reference does.
    DecisionCache restored(quantized_config(capacity));
    restored.restore_state(cache.export_state());
    EXPECT_EQ(restored.export_state(), cache.export_state());
    EXPECT_EQ(restored.entries(), cache.entries());
    for (int i = 0; i < 500; ++i) {
      step(restored);
      ASSERT_EQ(restored.stats(), reference.stats()) << "resumed step " << i;
      ASSERT_EQ(restored.export_state(), reference.export_state())
          << "resumed step " << i;
    }
  }
}

TEST(DecisionCacheTest, TaskLadderHashSeparatesContentIdentities) {
  TaskEnvironment task;
  task.duration_s = 2.0;
  task.size_megabits = {1.0, 2.0, 4.0};
  TaskEnvironment other = task;
  other.size_megabits[2] = 4.5;
  const TaskEnvironment one_task[] = {task};
  const TaskEnvironment two_tasks[] = {task, task};
  const TaskEnvironment changed[] = {other};
  EXPECT_EQ(hash_task_ladder(one_task), hash_task_ladder(one_task));
  EXPECT_NE(hash_task_ladder(one_task), hash_task_ladder(two_tasks));
  EXPECT_NE(hash_task_ladder(one_task), hash_task_ladder(changed));
  // Context fields are NOT content: they enter the key through their own
  // dimensions, so the ladder hash must ignore them.
  TaskEnvironment noisy = task;
  noisy.vibration = 3.0;
  noisy.signal_dbm = -50.0;
  noisy.bandwidth_mbps = 9.0;
  const TaskEnvironment noisy_window[] = {noisy};
  EXPECT_EQ(hash_task_ladder(one_task), hash_task_ladder(noisy_window));
}

}  // namespace
}  // namespace eacs::core
