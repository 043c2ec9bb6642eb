#include "eacs/core/decision_cache.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "eacs/core/cost_stats.h"

namespace eacs::core {
namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x00000100000001b3ULL;

std::uint64_t fnv1a(std::uint64_t state, std::uint64_t value) noexcept {
  for (int i = 0; i < 8; ++i) {
    state ^= (value >> (8 * i)) & 0xFFULL;
    state *= kFnvPrime;
  }
  return state;
}

std::uint64_t fnv1a(std::uint64_t state, double value) noexcept {
  return fnv1a(state, std::bit_cast<std::uint64_t>(value));
}

// Linear bucketing. The key is the bucket index, the representative is the
// bucket midpoint — every raw value in the bucket solves on the same inputs.
// Non-finite values fall back to exact-bit keying (bit patterns of NaN/Inf
// land around 2^63, far outside any realistic bucket index) with the raw
// value as representative, so degenerate inputs can't alias a finite bucket.
struct Bucketed {
  std::int64_t bucket;
  double representative;
};

Bucketed linear_bucket(double value, double width) noexcept {
  if (!std::isfinite(value)) {
    return {static_cast<std::int64_t>(std::bit_cast<std::uint64_t>(value)),
            value};
  }
  const auto bucket = static_cast<std::int64_t>(std::floor(value / width));
  return {bucket, (static_cast<double>(bucket) + 0.5) * width};
}

// Logarithmic (octave) bucketing for bandwidth: relative resolution, so
// 0.5 vs 0.6 Mbps distinguish while 40 vs 48 Mbps coalesce. Non-positive
// estimates collapse into one "no throughput" bucket with representative 0.
Bucketed log_bucket(double value, double buckets_per_octave) noexcept {
  if (!std::isfinite(value)) {
    return {static_cast<std::int64_t>(std::bit_cast<std::uint64_t>(value)),
            value};
  }
  if (value <= 0.0) {
    return {std::numeric_limits<std::int64_t>::min(), 0.0};
  }
  const auto bucket = static_cast<std::int64_t>(
      std::floor(std::log2(value) * buckets_per_octave));
  return {bucket,
          std::exp2((static_cast<double>(bucket) + 0.5) / buckets_per_octave)};
}

// Index-only variants for key_for(): the hit path never needs the
// representative, so it skips the midpoint / exp2 reconstruction. These MUST
// floor exactly like their Bucketed counterparts — key_for() and
// canonicalize() are certified bitwise-equal on the key.
std::int64_t linear_bucket_index(double value, double width) noexcept {
  if (!std::isfinite(value)) {
    return static_cast<std::int64_t>(std::bit_cast<std::uint64_t>(value));
  }
  return static_cast<std::int64_t>(std::floor(value / width));
}

std::int64_t log_bucket_index(double value,
                              double buckets_per_octave) noexcept {
  if (!std::isfinite(value)) {
    return static_cast<std::int64_t>(std::bit_cast<std::uint64_t>(value));
  }
  if (value <= 0.0) return std::numeric_limits<std::int64_t>::min();
  return static_cast<std::int64_t>(
      std::floor(std::log2(value) * buckets_per_octave));
}

std::int64_t exact_bits(double value) noexcept {
  return static_cast<std::int64_t>(std::bit_cast<std::uint64_t>(value));
}

void require_positive(double value, const char* name) {
  if (!(value > 0.0) || !std::isfinite(value)) {
    throw std::invalid_argument(std::string("DecisionCacheConfig: ") + name +
                                " must be positive and finite");
  }
}

// Previous-rung bucketing: floor representative so the canonical prev is
// always a real (not interpolated) rung index.
std::int64_t prev_level_bucket_index(std::size_t prev,
                                     std::size_t width) noexcept {
  return static_cast<std::int64_t>(prev / width);
}

std::size_t prev_level_representative(std::size_t prev,
                                      std::size_t width) noexcept {
  return (prev / width) * width;
}

}  // namespace

namespace {

// 64-bit avalanche (the murmur3/splitmix finalizer). Word-at-a-time: the
// hash sits on the per-lookup hot path of the fleet simulator, where a
// byte-wise FNV costs more than the table probe it feeds.
std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

// Cells in the first index the storage allocates; it doubles from there.
constexpr std::size_t kMinCells = 16;

}  // namespace

std::uint64_t DecisionKey::hash() const noexcept {
  std::uint64_t h = kFnvOffset;
  h = mix64(h ^ ladder_id);
  h = mix64(h ^ alpha_bits);
  h = mix64(h ^ static_cast<std::uint64_t>(buffer));
  h = mix64(h ^ static_cast<std::uint64_t>(bandwidth));
  h = mix64(h ^ static_cast<std::uint64_t>(vibration));
  h = mix64(h ^ static_cast<std::uint64_t>(confidence));
  h = mix64(h ^ static_cast<std::uint64_t>(signal));
  h = mix64(h ^ static_cast<std::uint64_t>(remaining));
  h = mix64(h ^ static_cast<std::uint64_t>(prev_level));
  return h;
}

DecisionCache::DecisionCache(DecisionCacheConfig config)
    : config_(config) {
  if (!config_.exact) {
    require_positive(config_.buffer_bucket_s, "buffer_bucket_s");
    require_positive(config_.bandwidth_buckets_per_octave,
                     "bandwidth_buckets_per_octave");
    require_positive(config_.vibration_bucket, "vibration_bucket");
    require_positive(config_.confidence_bucket, "confidence_bucket");
    require_positive(config_.signal_bucket_dbm, "signal_bucket_dbm");
    if (config_.prev_level_bucket == 0) {
      throw std::invalid_argument(
          "DecisionCacheConfig: prev_level_bucket must be >= 1");
    }
  }
}

CanonicalDecision DecisionCache::canonicalize(
    const DecisionSnapshot& snapshot) const noexcept {
  CanonicalDecision out;
  out.key.ladder_id = snapshot.ladder_id;
  out.key.alpha_bits = std::bit_cast<std::uint64_t>(snapshot.alpha);
  out.key.remaining = static_cast<std::int64_t>(snapshot.segments_remaining);
  if (snapshot.prev_level) {
    const std::size_t width = config_.exact ? 1 : config_.prev_level_bucket;
    out.key.prev_level = prev_level_bucket_index(*snapshot.prev_level, width);
    out.prev_level = prev_level_representative(*snapshot.prev_level, width);
  } else {
    out.key.prev_level = DecisionKey::kNoPrevLevel;
  }
  if (config_.exact) {
    out.key.buffer = exact_bits(snapshot.buffer_s);
    out.key.bandwidth = exact_bits(snapshot.bandwidth_mbps);
    out.key.vibration = exact_bits(snapshot.vibration);
    out.key.confidence = exact_bits(snapshot.confidence);
    out.key.signal = exact_bits(snapshot.signal_dbm);
    out.buffer_s = snapshot.buffer_s;
    out.bandwidth_mbps = snapshot.bandwidth_mbps;
    out.vibration = snapshot.vibration;
    out.confidence = snapshot.confidence;
    out.signal_dbm = snapshot.signal_dbm;
    return out;
  }
  const Bucketed buffer =
      linear_bucket(snapshot.buffer_s, config_.buffer_bucket_s);
  const Bucketed bandwidth =
      log_bucket(snapshot.bandwidth_mbps, config_.bandwidth_buckets_per_octave);
  const Bucketed vibration =
      linear_bucket(snapshot.vibration, config_.vibration_bucket);
  const Bucketed confidence =
      linear_bucket(snapshot.confidence, config_.confidence_bucket);
  const Bucketed signal =
      linear_bucket(snapshot.signal_dbm, config_.signal_bucket_dbm);
  out.key.buffer = buffer.bucket;
  out.key.bandwidth = bandwidth.bucket;
  out.key.vibration = vibration.bucket;
  out.key.confidence = confidence.bucket;
  out.key.signal = signal.bucket;
  out.buffer_s = buffer.representative;
  out.bandwidth_mbps = bandwidth.representative;
  out.vibration = vibration.representative;
  out.confidence = confidence.representative;
  out.signal_dbm = signal.representative;
  return out;
}

DecisionKey DecisionCache::key_for(
    const DecisionSnapshot& snapshot) const noexcept {
  DecisionKey key;
  key.ladder_id = snapshot.ladder_id;
  key.alpha_bits = std::bit_cast<std::uint64_t>(snapshot.alpha);
  key.remaining = static_cast<std::int64_t>(snapshot.segments_remaining);
  key.prev_level =
      snapshot.prev_level
          ? prev_level_bucket_index(*snapshot.prev_level,
                                    config_.exact ? 1
                                                  : config_.prev_level_bucket)
          : DecisionKey::kNoPrevLevel;
  if (config_.exact) {
    key.buffer = exact_bits(snapshot.buffer_s);
    key.bandwidth = exact_bits(snapshot.bandwidth_mbps);
    key.vibration = exact_bits(snapshot.vibration);
    key.confidence = exact_bits(snapshot.confidence);
    key.signal = exact_bits(snapshot.signal_dbm);
    return key;
  }
  key.buffer = linear_bucket_index(snapshot.buffer_s, config_.buffer_bucket_s);
  key.bandwidth = log_bucket_index(snapshot.bandwidth_mbps,
                                   config_.bandwidth_buckets_per_octave);
  key.vibration =
      linear_bucket_index(snapshot.vibration, config_.vibration_bucket);
  key.confidence =
      linear_bucket_index(snapshot.confidence, config_.confidence_bucket);
  key.signal =
      linear_bucket_index(snapshot.signal_dbm, config_.signal_bucket_dbm);
  return key;
}

std::size_t DecisionCache::probe(const std::vector<Entry>& cells,
                                 std::size_t slot) noexcept {
  // Fibonacci hashing on the slot number: the top bits of the product pick
  // the home cell, so neither a small capacity's dense slot range nor a
  // strided set of slots piles up in one probe run.
  const std::size_t mask = cells.size() - 1;
  std::size_t at = static_cast<std::size_t>(
      (static_cast<std::uint64_t>(slot) * 0x9E3779B97F4A7C15ULL) >>
      (64 - std::countr_zero(cells.size())));
  while (cells[at].slot != slot && cells[at].slot != kFree) {
    at = (at + 1) & mask;
  }
  return at;
}

std::optional<std::size_t> DecisionCache::find(const DecisionKey& key) noexcept {
  if (entries_ != 0) {  // never true at capacity 0, so no % 0 below
    const std::size_t slot = key.hash() % config_.capacity;
    const Entry& cell = cells_[probe(cells_, slot)];
    if (cell.slot == slot && cell.key == key) {
      ++stats_.hits;
      if (CostStats* scope = CostStatsScope::current()) ++scope->cache_hits;
      return cell.level;
    }
  }
  ++stats_.misses;
  if (CostStats* scope = CostStatsScope::current()) ++scope->cache_misses;
  return std::nullopt;
}

void DecisionCache::count_external_hit() noexcept {
  ++stats_.hits;
  if (CostStats* scope = CostStatsScope::current()) ++scope->cache_hits;
}

void DecisionCache::insert(const DecisionKey& key, std::size_t level) {
  if (config_.capacity == 0) return;
  if (2 * (entries_ + 1) > cells_.size()) {
    std::vector<Entry> grown(std::max(kMinCells, 2 * cells_.size()));
    for (const Entry& cell : cells_) {
      if (cell.slot != kFree) grown[probe(grown, cell.slot)] = cell;
    }
    cells_.swap(grown);
  }
  const std::size_t slot = key.hash() % config_.capacity;
  Entry& cell = cells_[probe(cells_, slot)];
  if (cell.slot == kFree) {
    cell.slot = slot;
    ++entries_;
  } else if (!(cell.key == key)) {
    ++stats_.evictions;
    if (CostStats* scope = CostStatsScope::current()) ++scope->cache_evictions;
  }
  cell.key = key;
  cell.level = static_cast<std::uint32_t>(level);
}

void DecisionCache::clear() noexcept {
  std::vector<Entry>().swap(cells_);
  stats_ = DecisionCacheStats{};
  entries_ = 0;
}

DecisionCacheState DecisionCache::export_state() const {
  DecisionCacheState state;
  state.stats = stats_;
  state.entries.reserve(entries_);
  for (const Entry& cell : cells_) {
    if (cell.slot != kFree) {
      state.entries.push_back({cell.slot, cell.key, cell.level});
    }
  }
  std::sort(state.entries.begin(), state.entries.end(),
            [](const DecisionCacheState::Entry& a,
               const DecisionCacheState::Entry& b) { return a.slot < b.slot; });
  return state;
}

void DecisionCache::restore_state(const DecisionCacheState& state) {
  // Built aside and swapped in, so a rejected state changes nothing.
  std::vector<Entry> cells;
  if (!state.entries.empty()) {
    cells.resize(std::max(kMinCells, std::bit_ceil(2 * state.entries.size())));
  }
  for (const DecisionCacheState::Entry& entry : state.entries) {
    if (entry.slot >= config_.capacity) {
      throw std::invalid_argument(
          "DecisionCache::restore_state: slot index outside capacity");
    }
    // An entry away from its key's home slot could never be hit, and the
    // first insert there would count a spurious eviction.
    if (entry.slot != entry.key.hash() % config_.capacity) {
      throw std::invalid_argument(
          "DecisionCache::restore_state: entry is not in its key's slot");
    }
    Entry& cell = cells[probe(cells, entry.slot)];
    if (cell.slot != kFree) {
      throw std::invalid_argument(
          "DecisionCache::restore_state: duplicate slot index");
    }
    cell = {entry.slot, entry.key, entry.level};
  }
  cells_.swap(cells);
  entries_ = state.entries.size();
  stats_ = state.stats;
}

std::uint64_t hash_task_ladder(
    std::span<const TaskEnvironment> tasks) noexcept {
  std::uint64_t h = kFnvOffset;
  h = fnv1a(h, static_cast<std::uint64_t>(tasks.size()));
  for (const TaskEnvironment& task : tasks) {
    h = fnv1a(h, task.duration_s);
    h = fnv1a(h, static_cast<std::uint64_t>(task.size_megabits.size()));
    for (double size : task.size_megabits) h = fnv1a(h, size);
  }
  return h;
}

}  // namespace eacs::core
