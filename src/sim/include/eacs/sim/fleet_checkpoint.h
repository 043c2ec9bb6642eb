#pragma once
// Deterministic fleet checkpoint/resume (DESIGN §14).
//
// A FleetCheckpoint is a full bit-exact snapshot of a fleet run cut at sim
// time T: every region's pending event set, SoA session arena, per-cell
// in-flight counts, streaming aggregator internals (Welford moments, P^2
// markers, reservoir contents *and* Rng engine state), overload-shed state,
// and DecisionCache shard contents. Because every event (t, session, kind)
// is unique — each live session has exactly one pending event — the heap pop
// order is a strict total order, so re-pushing the captured event multiset
// reproduces the remaining pop sequence exactly. Sessions yet to arrive are
// not heap events in the running fleet (a per-region arrival cursor holds
// the next one); capture writes them as arrive events in the same pop
// order, and resume checks them against the arrival schedule and hands them
// back to the cursor. The certification is
// EXPECT_EQ: run_fleet_until(T) + resume_fleet == run_fleet, bitwise, at any
// jobs count, with or without faults (tests/differential/).
//
// The fault overlay itself is never serialized: it is a pure function of the
// config (fleet_faults.h), so resume just rebuilds it. A config fingerprint
// (FNV-1a over every result-shaping field, exec.jobs excluded) guards
// against resuming under a different config — resume_fleet throws rather
// than silently diverging.
//
// Each piece of region state is declared once: the running region's arena
// *is* a FleetArenaState and its shed detector a FleetShedState, so capture
// and restore copy them whole. The sidecar format is a versioned
// whitespace-separated token stream with doubles written as u64 bit
// patterns (std::bit_cast): exact, portable, and diffable. One field list
// per state type (fleet_checkpoint.cpp's io(), walking for_each_column for
// the arena) defines the token order and serves both save and load, so
// save/load round-trips bit-identically by construction. A sidecar is
// outside input: load refuses a count larger than the rest of the file can
// hold, and resume validates every index and count before using it.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "eacs/sim/fleet.h"

namespace eacs::sim {

/// One pending event: the heap element of the running fleet (fleet.cpp).
struct FleetEventState {
  double t_s = 0.0;
  int session = 0;
  std::uint8_t kind = 0;  // 0 = arrive, 1 = request, 2 = complete
  std::uint32_t slot = 0;

  bool operator==(const FleetEventState&) const = default;
};

/// The SoA session arena of a running region: RegionSim's SessionArena
/// derives from it, so the live arena is its own snapshot. All vectors
/// except free_slots are indexed by slot and sized to the live high-water
/// mark; `throughputs` is slots x window. for_each_column below is the one
/// list of the columns.
struct FleetArenaState {
  std::size_t window = 1;
  std::vector<int> session;
  std::vector<std::size_t> cell;
  std::vector<std::size_t> next_segment;
  std::vector<double> arrival_s;
  std::vector<double> last_event_s;  ///< playback drained up to here
  std::vector<double> buffer_s;
  std::vector<std::uint8_t> playing;
  std::vector<double> startup_s;       ///< set when playback starts
  std::vector<double> rebuffer_s;      ///< total stall so far
  std::vector<double> seg_rebuffer_s;  ///< stall since the current request
  std::vector<double> qoe_sum;
  std::vector<double> energy_j;
  std::vector<double> bitrate_sum;
  std::vector<double> prev_bitrate;  ///< ladder[prev_level]; kept only so the
                                     ///< sidecar format stays as it was
  std::vector<int> prev_level;  ///< last completed rung (-1 before any)
  // In-flight transfer (valid between request and complete).
  std::vector<double> request_s;
  std::vector<double> size_mb;
  std::vector<double> level_bitrate;
  std::vector<std::uint32_t> level;  ///< in-flight rung index
  // Planner L1: the slot's last canonical decision. Steady-state sessions
  // canonicalize consecutive requests to the same key, and decisions are a
  // pure function of the key, so an equal key reuses the level without
  // probing the shared shard table (a guaranteed cold-cache access at fleet
  // capacities). Counted as cache hits via count_external_hit().
  std::vector<core::DecisionKey> last_key;
  std::vector<std::uint32_t> last_level;
  std::vector<std::uint8_t> has_last;
  /// Consecutive failed request attempts (dead region): drives the
  /// exponential backoff ladder; reset on every successful request.
  std::vector<std::uint32_t> retries;
  // Inline harmonic-mean bandwidth window: throughputs[slot*window + i].
  std::vector<double> throughputs;
  std::vector<std::size_t> seen;  ///< samples observed (ring write cursor)
  std::vector<std::uint32_t> free_slots;

  bool operator==(const FleetArenaState&) const = default;
};

/// The arena's one column list, in sidecar token order: calls
/// f(column, per_slot) for every vector, where per_slot is how many
/// elements one slot owns (window for the bandwidth rings, 0 for the free
/// list). Serves the codec, the arena's slot growth and restore's checks.
template <class Arena, class F>
void for_each_column(Arena& a, F&& f) {
  f(a.session, 1);
  f(a.cell, 1);
  f(a.next_segment, 1);
  f(a.arrival_s, 1);
  f(a.last_event_s, 1);
  f(a.buffer_s, 1);
  f(a.playing, 1);
  f(a.startup_s, 1);
  f(a.rebuffer_s, 1);
  f(a.seg_rebuffer_s, 1);
  f(a.qoe_sum, 1);
  f(a.energy_j, 1);
  f(a.bitrate_sum, 1);
  f(a.prev_bitrate, 1);
  f(a.prev_level, 1);
  f(a.request_s, 1);
  f(a.size_mb, 1);
  f(a.level_bitrate, 1);
  f(a.level, 1);
  f(a.last_key, 1);
  f(a.last_level, 1);
  f(a.has_last, 1);
  f(a.retries, 1);
  f(a.throughputs, a.window);
  f(a.seen, 1);
  f(a.free_slots, 0);
}

/// Overload-shed detector state (the degradation ladder's planner->
/// throughput triggers).
struct FleetShedState {
  std::uint8_t live_shed = 0;
  std::uint8_t miss_shed = 0;
  double shed_until_s = 0.0;
  std::uint64_t window_consults = 0;
  std::uint64_t window_misses = 0;

  bool operator==(const FleetShedState&) const = default;
};

/// Everything one region needs to continue exactly where the cut stopped.
struct FleetRegionCheckpoint {
  std::size_t region = 0;
  std::size_t live = 0;
  /// Pending events in pop order, the region's sessions yet to arrive
  /// included (kind 0, one per session arriving at or after the cut).
  std::vector<FleetEventState> events;
  FleetArenaState arena;
  std::vector<std::size_t> cell_active;  ///< in-flight downloads per cell
  FleetRegionMetrics metrics;  ///< counters so far (medians still zero)
  RunningStatsState qoe, energy_j, bitrate_mbps, rebuffer_s, startup_s;
  ReservoirSamplerState qoe_sample, energy_sample, rebuffer_sample;
  P2QuantileState median_qoe, median_energy;
  FleetShedState shed;
  core::DecisionCacheState cache;  ///< empty under the throughput policy

  bool operator==(const FleetRegionCheckpoint&) const = default;
};

/// A fleet run cut at time T.
struct FleetCheckpoint {
  std::uint64_t config_fingerprint = 0;
  double checkpoint_t_s = 0.0;
  std::vector<FleetRegionCheckpoint> regions;

  bool operator==(const FleetCheckpoint&) const = default;
};

/// FNV-1a over every FleetConfig field that shapes results (network, content,
/// player, policy, cache, faults, resilience, qoe/power params, seed —
/// everything except exec.jobs, which never changes results under the §6
/// contract).
std::uint64_t fleet_config_fingerprint(const FleetConfig& config);

/// Runs the fleet up to (exclusive) sim time `t_s` and captures the full
/// state. Same validation as run_fleet; additionally throws
/// std::invalid_argument on a non-finite or non-positive `t_s`.
FleetCheckpoint run_fleet_until(const FleetConfig& config, double t_s);

/// Continues a checkpointed run to completion. Bit-identical to the
/// uninterrupted run_fleet(config) at any exec.jobs. Throws
/// std::invalid_argument when the checkpoint's fingerprint does not match
/// `config`, its region count is inconsistent, a region's pending arrivals
/// are not exactly its sessions arriving at or after the cut with bit-equal
/// times, or a region's state is inconsistent: an event kind outside
/// {0, 1, 2}; a request or completion not on its own session's live slot;
/// ragged arena columns; a free list with out-of-range or repeated slots;
/// `live` not equal to slots minus free slots; a live slot without exactly
/// one pending event, or with a cell outside the region's block or a rung
/// or segment outside the config; a cache entry off the ladder; or a
/// reservoir capacity other than the config's.
FleetMetrics resume_fleet(const FleetConfig& config,
                          const FleetCheckpoint& checkpoint);

/// Writes / reads the sidecar file. save throws std::runtime_error when the
/// file cannot be written; load throws std::runtime_error on a missing file,
/// a bad magic/version, or a truncated or malformed token stream, including
/// a count larger than the rest of the file can hold.
void save_fleet_checkpoint(const FleetCheckpoint& checkpoint,
                           const std::string& path);
FleetCheckpoint load_fleet_checkpoint(const std::string& path);

}  // namespace eacs::sim
