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
// The sidecar format is a versioned whitespace-separated token stream with
// doubles written as u64 bit patterns (std::bit_cast): exact, portable, and
// diffable. save/load round-trips bit-identically by construction.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "eacs/sim/fleet.h"

namespace eacs::sim {

/// One pending event (the heap element of fleet.cpp, flattened).
struct FleetEventState {
  double t_s = 0.0;
  int session = 0;
  std::uint8_t kind = 0;  // 0 = arrive, 1 = request, 2 = complete
  std::uint32_t slot = 0;

  bool operator==(const FleetEventState&) const = default;
};

/// The SoA session arena, field for field (fleet.cpp's SessionArena). All
/// vectors are indexed by slot; `throughputs` is slots x window.
struct FleetArenaState {
  std::size_t window = 1;
  std::vector<int> session;
  std::vector<std::size_t> cell;
  std::vector<std::size_t> next_segment;
  std::vector<double> arrival_s;
  std::vector<double> last_event_s;
  std::vector<double> buffer_s;
  std::vector<std::uint8_t> playing;
  std::vector<double> startup_s;
  std::vector<double> rebuffer_s;
  std::vector<double> seg_rebuffer_s;
  std::vector<double> qoe_sum;
  std::vector<double> energy_j;
  std::vector<double> bitrate_sum;
  std::vector<double> prev_bitrate;
  std::vector<int> prev_level;
  std::vector<double> request_s;
  std::vector<double> size_mb;
  std::vector<double> level_bitrate;
  std::vector<std::uint32_t> level;
  std::vector<core::DecisionKey> last_key;
  std::vector<std::uint32_t> last_level;
  std::vector<std::uint8_t> has_last;
  std::vector<std::uint32_t> retries;
  std::vector<double> throughputs;
  std::vector<std::size_t> seen;
  std::vector<std::uint32_t> free_slots;

  bool operator==(const FleetArenaState&) const = default;
};

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
};

/// A fleet run cut at time T.
struct FleetCheckpoint {
  std::uint64_t config_fingerprint = 0;
  double checkpoint_t_s = 0.0;
  std::vector<FleetRegionCheckpoint> regions;
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
/// `config`, its region count is inconsistent, or a region's pending
/// arrivals are not exactly its sessions arriving at or after the cut, with
/// bit-equal times.
FleetMetrics resume_fleet(const FleetConfig& config,
                          const FleetCheckpoint& checkpoint);

/// Writes / reads the sidecar file. save throws std::runtime_error when the
/// file cannot be written; load throws std::runtime_error on a missing file,
/// a bad magic/version, or a truncated or malformed token stream.
void save_fleet_checkpoint(const FleetCheckpoint& checkpoint,
                           const std::string& path);
FleetCheckpoint load_fleet_checkpoint(const std::string& path);

}  // namespace eacs::sim
