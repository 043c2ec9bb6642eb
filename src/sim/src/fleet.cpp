#include "eacs/sim/fleet.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <optional>
#include <queue>
#include <stdexcept>
#include <string>
#include <vector>

#include "eacs/core/horizon.h"
#include "eacs/core/objective.h"
#include "eacs/sim/fleet_checkpoint.h"
#include "eacs/sim/seed_mix.h"
#include "eacs/util/thread_pool.h"

namespace eacs::sim {
namespace {

// seed_mix "grid index" lanes reserved by the fleet path (cell indices use
// the plain lane in CellNetwork; these stay clear of real cell counts).
constexpr std::size_t kVibrationLane = 0x00F1'0001;
constexpr std::size_t kReservoirLane = 0x00F1'0002;

/// Per-session procedural vibration level [m/s^2]: a stable draw skewed
/// toward stillness (squared uniform), so a minority of the fleet is
/// "walking" and hits the context-aware rung cap.
double session_vibration(std::uint64_t seed, int session_id) noexcept {
  const double u = seed_unit(seed_mix(seed, kVibrationLane, session_id));
  return 3.0 * u * u;
}

/// One scheduled event, the checkpoint's own event type. Every live session
/// has exactly one pending event (request -> complete -> request -> ...), so
/// events can carry their slot index and never go stale. Arrivals come from
/// the region's arrival cursor and only pass through the heap in the rare
/// case noted at pop_next.
using Event = FleetEventState;
constexpr std::uint8_t kArrive = 0;
constexpr std::uint8_t kRequest = 1;
constexpr std::uint8_t kComplete = 2;

/// Min-heap order (t, session, kind): deterministic pops under duplicate
/// timestamps, independent of heap internals. Because each session owns at
/// most one pending event, the order is a strict total order — which is what
/// lets a checkpoint re-push the captured event multiset and reproduce the
/// remaining pop sequence exactly. The arrival cursor merges into the same
/// order.
struct EventAfter {
  bool operator()(const Event& a, const Event& b) const noexcept {
    if (a.t_s != b.t_s) return a.t_s > b.t_s;
    if (a.session != b.session) return a.session > b.session;
    return a.kind > b.kind;
  }
};

/// SoA arena for live-session state: the columns of FleetArenaState, so a
/// checkpoint copies the arena whole. Finished sessions return their slot to
/// the free list, so a 100k-session run with a few hundred live at a time
/// allocates a few hundred slots. The bandwidth window is inlined as
/// slots x K doubles (no per-session allocations).
struct SessionArena : FleetArenaState {
  explicit SessionArena(std::size_t bandwidth_window) {
    window = std::max<std::size_t>(1, bandwidth_window);
  }

  std::size_t slots() const noexcept { return session.size(); }

  std::uint32_t acquire(int id, double now, std::size_t start_cell) {
    std::uint32_t slot;
    if (!free_slots.empty()) {
      slot = free_slots.back();
      free_slots.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(slots());
      for_each_column(*this, [](auto& column, std::size_t per_slot) {
        column.resize(column.size() + per_slot);
      });
    }
    session[slot] = id;
    cell[slot] = start_cell;
    next_segment[slot] = 0;
    arrival_s[slot] = now;
    last_event_s[slot] = now;
    buffer_s[slot] = 0.0;
    playing[slot] = 0;
    startup_s[slot] = 0.0;
    rebuffer_s[slot] = 0.0;
    seg_rebuffer_s[slot] = 0.0;
    qoe_sum[slot] = 0.0;
    energy_j[slot] = 0.0;
    bitrate_sum[slot] = 0.0;
    prev_bitrate[slot] = 0.0;
    prev_level[slot] = -1;
    request_s[slot] = 0.0;
    size_mb[slot] = 0.0;
    level_bitrate[slot] = 0.0;
    level[slot] = 0;
    has_last[slot] = 0;
    retries[slot] = 0;
    std::fill_n(throughputs.begin() + static_cast<std::ptrdiff_t>(slot * window),
                window, 0.0);
    seen[slot] = 0;
    return slot;
  }

  void release(std::uint32_t slot) { free_slots.push_back(slot); }

  void observe(std::uint32_t slot, double mbps) {
    throughputs[slot * window + seen[slot] % window] = mbps;
    ++seen[slot];
  }

  /// Harmonic mean over the window; 0 before any sample.
  double estimate(std::uint32_t slot) const {
    const std::size_t n = std::min(seen[slot], window);
    if (n == 0) return 0.0;
    double inv = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      inv += 1.0 / throughputs[slot * window + i];
    }
    return static_cast<double>(n) / inv;
  }
};

/// Shard-local aggregates. Default-constructible for parallel_map; the
/// reservoirs are re-seeded per region before use.
struct Shard {
  FleetRegionMetrics region;
  RunningStats qoe, energy_j, bitrate_mbps, rebuffer_s, startup_s;
  ReservoirSampler qoe_sample{1};
  ReservoirSampler energy_sample{1};
  ReservoirSampler rebuffer_sample{1};
  P2Quantile median_qoe{0.5};
  P2Quantile median_energy{0.5};
};

/// One region's full simulation state: a pure function of (config, region
/// index, optional checkpoint). Extracted from the old run_region free
/// function so the same event loop can run to completion (run_fleet), stop
/// at a checkpoint cut (run_fleet_until + capture), or continue from one
/// (restore + resume_fleet). Sessions are pinned by id % regions; cells are
/// the region's contiguous block.
struct RegionSim {
  const FleetConfig& config;
  const CellNetwork& network;
  const qoe::QoeModel& qoe_model;
  const power::PowerModel& power_model;
  /// qoe_model.rung of each config.ladder_mbps entry: a completion prices
  /// its QoE from rungs[level] and rungs[prev_level].
  std::vector<qoe::RungQuality> rungs;
  /// Built empty for a clean run, where every query returns the neutral
  /// state — an exact no-op on every result (DESIGN §14).
  const FleetFaultModel& faults;
  std::size_t num_regions;
  std::size_t region;
  std::size_t first_cell = 0;
  std::size_t cell_count = 0;

  Shard shard;
  SessionArena arena;
  std::vector<std::size_t> cell_active;  // in-flight downloads per cell
  std::priority_queue<Event, std::vector<Event>, EventAfter> heap;
  std::size_t live = 0;

  // Arrival cursor: the region's sessions (region, region + regions, ...)
  // arrive in id order, so only the next one is held instead of a heap
  // event per future arrival. next_arrival >= num_sessions when exhausted.
  // arrival_floor_s bounds every later arrival's time from below (see
  // FleetFaultModel::arrival_floor).
  std::size_t next_arrival = 0;
  double arrival_t_s = 0.0;
  double arrival_floor_s = 0.0;

  // Planner-policy machinery: one cache shard per region, one Objective per
  // region, and a reusable window of TaskEnvironments (sizes/durations are
  // fleet-constant — only the context fields change per solve, and only to
  // canonical representatives).
  bool planner = false;
  std::optional<core::Objective> objective;
  std::optional<core::DecisionCache> cache;
  std::vector<core::TaskEnvironment> window_tasks;
  std::vector<std::uint64_t> ladder_ids;  // ladder_ids[w-1]: window size w

  FleetShedState shed;  // overload-shed detector (DESIGN §14 ladder)

  RegionSim(const FleetConfig& config_in, const CellNetwork& network_in,
            const qoe::QoeModel& qoe_model_in,
            const power::PowerModel& power_model_in,
            const FleetFaultModel& faults_in, std::size_t region_in,
            std::size_t num_regions_in)
      : config(config_in),
        network(network_in),
        qoe_model(qoe_model_in),
        power_model(power_model_in),
        faults(faults_in),
        num_regions(num_regions_in),
        region(region_in),
        arena(config_in.bandwidth_window) {
    const std::size_t base = network.num_cells() / num_regions;
    const std::size_t rem = network.num_cells() % num_regions;
    first_cell = region * base + std::min(region, rem);
    cell_count = base + (region < rem ? 1 : 0);

    shard.region.region = region;
    shard.region.first_cell = first_cell;
    shard.region.num_cells = cell_count;
    shard.qoe_sample = ReservoirSampler(
        config.reservoir_capacity,
        seed_mix(config.seed, kReservoirLane, static_cast<int>(region * 3)));
    shard.energy_sample = ReservoirSampler(
        config.reservoir_capacity,
        seed_mix(config.seed, kReservoirLane, static_cast<int>(region * 3 + 1)));
    shard.rebuffer_sample = ReservoirSampler(
        config.reservoir_capacity,
        seed_mix(config.seed, kReservoirLane, static_cast<int>(region * 3 + 2)));
    cell_active.assign(cell_count, 0);
    for (const double mbps : config.ladder_mbps) {
      rungs.push_back(qoe_model.rung(mbps));
    }

    planner = config.policy == FleetPolicy::kPlanner;
    if (planner) {
      objective.emplace(qoe_model, power_model,
                        core::ObjectiveConfig{
                            .alpha = config.planner_alpha,
                            .buffer_threshold_s = config.buffer_threshold_s,
                            .context_aware = true});
      cache.emplace(config.planner_cache);
      window_tasks.resize(config.planner_horizon);
      ladder_ids.resize(config.planner_horizon);
      for (std::size_t k = 0; k < config.planner_horizon; ++k) {
        core::TaskEnvironment& env = window_tasks[k];
        env.index = k;
        env.duration_s = config.segment_duration_s;
        env.size_megabits.reserve(config.ladder_mbps.size());
        for (const double mbps : config.ladder_mbps) {
          env.size_megabits.push_back(mbps * config.segment_duration_s);
        }
        ladder_ids[k] = core::hash_task_ladder({window_tasks.data(), k + 1});
      }
    }
    seek_arrival(region);
  }

  /// Moves the arrival cursor to session `s`. The schedule is shared
  /// fleet-wide: session s arrives at s / rate whatever region it lands in —
  /// or at the surge-warped time when a flash crowd is configured.
  void seek_arrival(std::size_t s) {
    next_arrival = s;
    if (s >= config.num_sessions) return;
    arrival_t_s = faults.arrival_time(s, config.arrival_rate_per_s);
    arrival_floor_s = faults.arrival_floor(s, config.arrival_rate_per_s);
  }

  bool arrivals_pending() const noexcept {
    return next_arrival < config.num_sessions;
  }

  Event arrival_event() const noexcept {
    return {arrival_t_s, static_cast<int>(next_arrival), kArrive, 0};
  }

  /// Pops the next event in (t, session, kind) order across the heap and
  /// the arrival cursor into `out`, if it is strictly before `limit`.
  bool pop_next(double limit, Event& out) {
    // An arrival that rounding may have placed after a later session's
    // (past a surge-profile edge, see FleetFaultModel::arrival_floor) is
    // parked in the heap, so the cursor's arrival always precedes every
    // arrival not yet emitted and the merge below is exact.
    while (arrivals_pending() && arrival_floor_s < arrival_t_s) {
      heap.push(arrival_event());
      seek_arrival(next_arrival + num_regions);
    }
    if (arrivals_pending() &&
        (heap.empty() || EventAfter{}(heap.top(), arrival_event()))) {
      if (!(arrival_t_s < limit)) return false;
      out = arrival_event();
      seek_arrival(next_arrival + num_regions);
      return true;
    }
    if (heap.empty() || !(heap.top().t_s < limit)) return false;
    out = heap.top();
    heap.pop();
    return true;
  }

  /// Signal with the fault overlay applied.
  double fault_signal(int session_id, std::size_t cell, double t_s) const {
    return network.signal_dbm(session_id, cell, t_s) +
           faults.signal_offset_db(cell, t_s);
  }

  /// Advances playback to `now`: drains the buffer, accrues stalls.
  void drain(std::uint32_t slot, double now) {
    double dt = now - arena.last_event_s[slot];
    arena.last_event_s[slot] = now;
    if (arena.playing[slot] == 0 || dt <= 0.0) return;
    if (arena.buffer_s[slot] >= dt) {
      arena.buffer_s[slot] -= dt;
      return;
    }
    const double stall = dt - arena.buffer_s[slot];
    arena.buffer_s[slot] = 0.0;
    arena.rebuffer_s[slot] += stall;
    arena.seg_rebuffer_s[slot] += stall;
    ++shard.region.stall_events;
  }

  /// The faulted view of one live cell at one instant.
  struct LiveCell {
    std::size_t cell = 0;
    double signal_dbm = 0.0;
    double capacity_factor = 1.0;
  };

  /// One pass over the region's cells at `now`, one span lookup each: the
  /// strongest live (non-dead) cell by faulted signal, lowest index winning
  /// ties (cell == num_cells() when the whole region is dead), and the
  /// serving cell `current` (cell == num_cells() when it is dead).
  struct RegionScan {
    LiveCell best;
    LiveCell current;
  };
  RegionScan scan_region(int session_id, std::size_t current,
                         double now) const {
    RegionScan scan;
    scan.best.cell = network.num_cells();
    scan.current.cell = network.num_cells();
    for (std::size_t c = first_cell; c < first_cell + cell_count; ++c) {
      const CellFaultState state = faults.cell_state(c, now);
      if (state.dead) continue;
      const LiveCell cell{
          c, network.signal_dbm(session_id, c, now) + state.signal_offset_db,
          state.capacity_factor};
      if (scan.best.cell == network.num_cells() ||
          cell.signal_dbm > scan.best.signal_dbm) {
        scan.best = cell;
      }
      if (c == current) scan.current = cell;
    }
    return scan;
  }

  /// Serving-cell maintenance at a request boundary — the fleet's one
  /// serving-cell rule (DESIGN §12). Returns the live serving cell's faulted
  /// view when the request can proceed; nullopt when the session backed off
  /// (re-enqueued) or was abandoned.
  std::optional<LiveCell> ensure_live_cell(const Event& event, double now) {
    const std::uint32_t slot = event.slot;
    const RegionScan scan = scan_region(event.session, arena.cell[slot], now);
    if (scan.current.cell != network.num_cells()) {
      // Healthy serving cell: hand off only when the strongest live cell
      // beats it by more than the hysteresis margin (anti-ping-pong). A
      // clean run, with no dead cell, only ever takes this branch.
      arena.retries[slot] = 0;
      if (scan.best.cell != scan.current.cell &&
          scan.best.signal_dbm - scan.current.signal_dbm >
              config.handoff_hysteresis_db) {
        arena.cell[slot] = scan.best.cell;
        ++shard.region.handoffs;
        return scan.best;
      }
      return scan.current;
    }
    // Dead serving cell: escape to the strongest live cell in the region —
    // no hysteresis, any live cell beats a dead one.
    if (scan.best.cell != network.num_cells()) {
      arena.cell[slot] = scan.best.cell;
      ++shard.region.escape_handoffs;
      arena.retries[slot] = 0;
      return scan.best;
    }
    // Whole region dead: bounded exponential backoff, burning pause power
    // (the screen is on, the spinner spins — the rich player's stall
    // pricing), then abandonment once the retry budget is spent.
    ++arena.retries[slot];
    if (arena.retries[slot] > config.resilience.max_retries) {
      ++shard.region.abandoned_sessions;
      --live;
      arena.release(slot);
      return std::nullopt;
    }
    double backoff = config.resilience.backoff_base_s;
    for (std::uint32_t i = 1; i < arena.retries[slot]; ++i) {
      backoff *= config.resilience.backoff_factor;
    }
    backoff = std::min(backoff, config.resilience.backoff_max_s);
    const double wasted = power_model.params().p_pause_w * backoff;
    arena.energy_j[slot] += wasted;
    shard.region.wasted_energy_j += wasted;
    shard.region.degraded_time_s += backoff;
    ++shard.region.backoff_retries;
    heap.push({now + backoff, event.session, kRequest, slot});
    return std::nullopt;
  }

  /// Overload-shed decision for this request, updating the trigger state
  /// machines (transitions counted, never silent).
  bool shed_active(double now) {
    const FleetResilienceConfig& r = config.resilience;
    if (r.shed_live_threshold > 0) {
      const std::size_t recover =
          r.shed_live_recover > 0 ? r.shed_live_recover
                                  : r.shed_live_threshold / 2;
      if (shed.live_shed != 0) {
        if (live <= recover) {
          shed.live_shed = 0;
          ++shard.region.policy_recoveries;
        }
      } else if (live >= r.shed_live_threshold) {
        shed.live_shed = 1;
        ++shard.region.policy_sheds;
      }
    }
    if (shed.miss_shed != 0 && now >= shed.shed_until_s) {
      shed.miss_shed = 0;
      ++shard.region.policy_recoveries;
    }
    return shed.live_shed != 0 || shed.miss_shed != 0;
  }

  /// Feeds the trailing-window miss-rate trigger after a planner
  /// consultation. Recovery is time-held (shed_until_s): no consultations
  /// happen while shed, so a rate-based recovery could never fire.
  void note_consultation(bool miss, double now) {
    const FleetResilienceConfig& r = config.resilience;
    if (r.shed_miss_rate_threshold > 1.0 || r.shed_miss_window == 0) return;
    ++shed.window_consults;
    if (miss) ++shed.window_misses;
    if (shed.window_consults >= r.shed_miss_window) {
      const double rate = static_cast<double>(shed.window_misses) /
                          static_cast<double>(shed.window_consults);
      if (shed.miss_shed == 0 && rate >= r.shed_miss_rate_threshold) {
        shed.miss_shed = 1;
        shed.shed_until_s = now + r.shed_hold_s;
        ++shard.region.policy_sheds;
      }
      shed.window_consults = 0;
      shed.window_misses = 0;
    }
  }

  /// Throughput-based ABR with the context-aware rung cap — the baseline
  /// policy, and the degraded mode planner regions shed into.
  std::size_t throughput_level(std::uint32_t slot, int session_id) const {
    const std::size_t top_level = config.ladder_mbps.size() - 1;
    std::size_t level = 0;
    const double est = arena.estimate(slot);
    for (std::size_t l = top_level; l > 0; --l) {
      if (config.ladder_mbps[l] <= config.abr_safety * est) {
        level = l;
        break;
      }
    }
    if (session_vibration(config.seed, session_id) >
        config.vibration_cap_threshold) {
      level = std::min(level, config.vibration_rung_cap);
    }
    return level;
  }

  /// Processes events strictly before `limit` (pass +inf to run dry). The
  /// cut convention: an event at exactly the checkpoint time belongs to the
  /// resumed run.
  void run(double limit) {
    core::CostStatsScope stats_scope(shard.region.planner);
    const double seg_s = config.segment_duration_s;
    const std::size_t top_level = config.ladder_mbps.size() - 1;

    Event event;
    while (pop_next(limit, event)) {
      ++shard.region.events;
      const double now = event.t_s;

      if (event.kind == kArrive) {
        const std::size_t start =
            network.best_cell_in(event.session, now, first_cell, cell_count);
        const std::uint32_t slot = arena.acquire(event.session, now, start);
        ++live;
        shard.region.peak_live_sessions =
            std::max(shard.region.peak_live_sessions, live);
        heap.push({now, event.session, kRequest, slot});
        continue;
      }

      const std::uint32_t slot = event.slot;
      if (event.kind == kRequest) {
        drain(slot, now);
        // Throttle: above the buffer threshold, sleep until it drains back.
        // Only throttle when the wake time actually advances: after a wakeup
        // the buffer can sit one ulp above the threshold, and a sleep shorter
        // than ulp(now) would re-enqueue at the identical timestamp forever.
        if (arena.playing[slot] != 0 &&
            arena.buffer_s[slot] > config.buffer_threshold_s) {
          const double wake =
              now + (arena.buffer_s[slot] - config.buffer_threshold_s);
          if (wake > now) {
            heap.push({wake, event.session, kRequest, slot});
            continue;
          }
        }
        // Handoff check at every request boundary (hysteresis rule); under
        // faults this also escapes dead cells, backs off, or abandons. Yields
        // the serving cell's faulted signal and capacity factor.
        const std::optional<LiveCell> serving = ensure_live_cell(event, now);
        if (!serving) continue;
        std::size_t level = 0;
        if (planner) {
          // The paper's planner: rolling-horizon Eq. 11 DP on the session's
          // context snapshot, memoized through the region's cache shard. The
          // startup segment (no throughput sample yet) takes the fixed
          // startup rung, mirroring the selectors' startup path, and
          // bypasses the cache. No vibration rung cap here — the objective
          // itself prices vibration via the QoE impairment.
          if (arena.seen[slot] == 0) {
            level = std::min(config.planner_startup_level, top_level);
          } else if (shed_active(now)) {
            // Overload: degrade to the throughput policy for this decision.
            level = throughput_level(slot, event.session);
            ++shard.region.shed_decisions;
          } else {
            // Segments-remaining quantization (caller-side, since the
            // horizon is planner knowledge): in quantized mode every window
            // is canonicalized to the full horizon — the last few segments
            // plan over phantom successors, which only perturbs the receding
            // horizon's *lookahead*, never the committed first action's
            // context. Collapses the remaining-count key dimension to one
            // value. Exact mode keeps the true min(horizon, left) window.
            const std::size_t window =
                config.planner_cache.exact
                    ? std::min(config.planner_horizon,
                               config.segments_per_session -
                                   arena.next_segment[slot])
                    : config.planner_horizon;
            core::DecisionSnapshot snapshot;
            snapshot.buffer_s = arena.buffer_s[slot];
            snapshot.bandwidth_mbps = arena.estimate(slot);
            snapshot.vibration = session_vibration(config.seed, event.session);
            snapshot.signal_dbm = serving->signal_dbm;
            snapshot.segments_remaining = window;
            if (arena.prev_level[slot] >= 0) {
              snapshot.prev_level =
                  static_cast<std::size_t>(arena.prev_level[slot]);
            }
            snapshot.ladder_id = ladder_ids[window - 1];
            snapshot.alpha = config.planner_alpha;
            const core::DecisionKey key = cache->key_for(snapshot);
            // capacity = 0 is the no-memoization reference: the arena L1 is
            // memoization too, so it is disabled there along with the table.
            const bool memoize = config.planner_cache.capacity > 0;
            bool miss = false;
            if (memoize && arena.has_last[slot] &&
                arena.last_key[slot] == key) {
              // Arena L1 (see SessionArena::last_key): same canonical key →
              // same decision, no shard probe needed.
              level = arena.last_level[slot];
              cache->count_external_hit();
            } else if (const auto hit = cache->find(key)) {
              level = *hit;
            } else {
              // Cold key: reconstruct the representatives and solve on them
              // — canonicalize-then-solve, so the stored decision is exactly
              // what any later hit on this key must return.
              miss = true;
              const core::CanonicalDecision c = cache->canonicalize(snapshot);
              for (std::size_t k = 0; k < window; ++k) {
                window_tasks[k].signal_dbm = c.signal_dbm;
                window_tasks[k].vibration = c.vibration;
                window_tasks[k].bandwidth_mbps = c.bandwidth_mbps;
              }
              level = core::plan_horizon_first_action(
                  *objective, {window_tasks.data(), window}, c.buffer_s,
                  c.prev_level);
              cache->insert(key, level);
            }
            if (memoize) {
              arena.last_key[slot] = key;
              arena.last_level[slot] = static_cast<std::uint32_t>(level);
              arena.has_last[slot] = 1;
            }
            note_consultation(miss, now);
          }
        } else {
          level = throughput_level(slot, event.session);
        }
        const double bitrate = config.ladder_mbps[level];
        // Quasi-stationary processor sharing: the share is frozen at request
        // time (fleet-scale approximation; the rich engine re-shares per
        // step). Brownouts scale the capacity; outages never reach here —
        // ensure_live_cell gates them.
        const std::size_t local = serving->cell - first_cell;
        const double capacity = network.capacity_mbps(serving->cell, now) *
                                serving->capacity_factor;
        const double share = std::max(
            capacity / static_cast<double>(cell_active[local] + 1), 1e-6);
        ++cell_active[local];
        arena.request_s[slot] = now;
        arena.level_bitrate[slot] = bitrate;
        arena.level[slot] = static_cast<std::uint32_t>(level);
        arena.size_mb[slot] = bitrate * seg_s / 8.0;
        arena.seg_rebuffer_s[slot] = 0.0;
        ++shard.region.requests;
        heap.push(
            {now + (bitrate * seg_s) / share, event.session, kComplete, slot});
        continue;
      }

      // kComplete
      drain(slot, now);
      const std::size_t local = arena.cell[slot] - first_cell;
      --cell_active[local];
      const double elapsed = std::max(now - arena.request_s[slot], 1e-9);
      const double bitrate = arena.level_bitrate[slot];
      arena.observe(slot, arena.size_mb[slot] * 8.0 / elapsed);
      arena.buffer_s[slot] += seg_s;

      // The rung terms come from the ladder; only the session's vibration
      // factor is evaluated here. prev_level < 0: first segment, no switch.
      const int prev_level = arena.prev_level[slot];
      arena.qoe_sum[slot] += qoe_model.segment_qoe(
          rungs[arena.level[slot]], prev_level < 0 ? nullptr : &rungs[prev_level],
          qoe_model.vibration_factor(session_vibration(config.seed, event.session)),
          arena.seg_rebuffer_s[slot]);

      power::TaskEnergyInput task;
      task.size_mb = arena.size_mb[slot];
      task.bitrate_mbps = bitrate;
      task.signal_dbm = fault_signal(event.session, arena.cell[slot],
                                     0.5 * (arena.request_s[slot] + now));
      task.play_s = arena.playing[slot] != 0
                        ? std::max(0.0, elapsed - arena.seg_rebuffer_s[slot])
                        : 0.0;
      task.rebuffer_s = arena.seg_rebuffer_s[slot];
      arena.energy_j[slot] += power_model.task_energy(task);

      arena.bitrate_sum[slot] += bitrate;
      arena.prev_bitrate[slot] = bitrate;
      arena.prev_level[slot] = static_cast<int>(arena.level[slot]);
      if (arena.playing[slot] == 0 &&
          arena.buffer_s[slot] >= config.startup_buffer_s) {
        arena.playing[slot] = 1;
        arena.startup_s[slot] = now - arena.arrival_s[slot];
      }
      ++arena.next_segment[slot];
      if (arena.next_segment[slot] < config.segments_per_session) {
        heap.push({now, event.session, kRequest, slot});
        continue;
      }

      // Session end: drain the remaining buffer (priced as playback energy),
      // fold the per-session scalars into the streaming aggregates, free the
      // slot. Nothing per-session survives this point.
      if (arena.playing[slot] == 0) {
        arena.startup_s[slot] = now - arena.arrival_s[slot];
      }
      arena.energy_j[slot] +=
          power_model.playback_power(bitrate) * arena.buffer_s[slot];
      const double segments = static_cast<double>(config.segments_per_session);
      const double session_qoe = arena.qoe_sum[slot] / segments;
      const double session_energy = arena.energy_j[slot];
      const double session_bitrate = arena.bitrate_sum[slot] / segments;
      shard.qoe.add(session_qoe);
      shard.energy_j.add(session_energy);
      shard.bitrate_mbps.add(session_bitrate);
      shard.rebuffer_s.add(arena.rebuffer_s[slot]);
      shard.startup_s.add(arena.startup_s[slot]);
      shard.qoe_sample.add(session_qoe);
      shard.energy_sample.add(session_energy);
      shard.rebuffer_sample.add(arena.rebuffer_s[slot]);
      shard.median_qoe.add(session_qoe);
      shard.median_energy.add(session_energy);
      ++shard.region.sessions;
      --live;
      arena.release(slot);
    }
  }

  /// Drains the remaining events — the heap and the arrival cursor's
  /// pending arrivals, merged in pop order — into a checkpoint (terminal: the
  /// sim cannot continue after capture).
  FleetRegionCheckpoint capture() {
    FleetRegionCheckpoint ckpt;
    ckpt.region = region;
    ckpt.live = live;
    Event e;
    while (pop_next(std::numeric_limits<double>::infinity(), e)) {
      ckpt.events.push_back(e);
    }
    ckpt.arena = arena;
    ckpt.cell_active = cell_active;
    ckpt.metrics = shard.region;
    ckpt.qoe = shard.qoe.state();
    ckpt.energy_j = shard.energy_j.state();
    ckpt.bitrate_mbps = shard.bitrate_mbps.state();
    ckpt.rebuffer_s = shard.rebuffer_s.state();
    ckpt.startup_s = shard.startup_s.state();
    ckpt.qoe_sample = shard.qoe_sample.state();
    ckpt.energy_sample = shard.energy_sample.state();
    ckpt.rebuffer_sample = shard.rebuffer_sample.state();
    ckpt.median_qoe = shard.median_qoe.state();
    ckpt.median_energy = shard.median_energy.state();
    ckpt.shed = shed;
    if (cache) ckpt.cache = cache->export_state();
    return ckpt;
  }

  /// Reinstates a region state captured at sim time `cut_s`, after
  /// check_restorable.
  void restore(const FleetRegionCheckpoint& ckpt, double cut_s) {
    check_restorable(ckpt);
    static_cast<FleetArenaState&>(arena) = ckpt.arena;
    std::vector<Event> arrivals;  // captured pending arrivals, in pop order
    for (const Event& e : ckpt.events) {
      if (e.kind == kArrive) {
        arrivals.push_back(e);
      } else {
        heap.push(e);
      }
    }
    restore_arrivals(arrivals, cut_s);
    cell_active = ckpt.cell_active;
    live = ckpt.live;
    shard.region = ckpt.metrics;
    shard.qoe.restore(ckpt.qoe);
    shard.energy_j.restore(ckpt.energy_j);
    shard.bitrate_mbps.restore(ckpt.bitrate_mbps);
    shard.rebuffer_s.restore(ckpt.rebuffer_s);
    shard.startup_s.restore(ckpt.startup_s);
    shard.qoe_sample.restore(ckpt.qoe_sample);
    shard.energy_sample.restore(ckpt.energy_sample);
    shard.rebuffer_sample.restore(ckpt.rebuffer_sample);
    shard.median_qoe.restore(ckpt.median_qoe);
    shard.median_energy.restore(ckpt.median_energy);
    shed = ckpt.shed;
    if (cache) cache->restore_state(ckpt.cache);
  }

  /// A sidecar is outside input, and the resumed run follows every slot,
  /// cell and rung index in it unchecked. Throws std::invalid_argument
  /// unless the checkpoint is this region's (region, cell count, window),
  /// its arena columns are all `slots` long, its free list is distinct
  /// in-range slots, `live` counts the rest, every live slot's cell lies in
  /// the region's block and its rungs and segment in the config, each live
  /// slot is claimed by exactly one pending request or completion of its
  /// own session, cache entries are on the ladder (restore() has the cache
  /// check their slots) and the reservoirs have the config's capacity.
  void check_restorable(const FleetRegionCheckpoint& ckpt) const {
    const auto reject = [](const char* what) {
      throw std::invalid_argument(std::string("resume_fleet: checkpoint ") +
                                  what);
    };
    if (ckpt.region != region) reject("region mismatch");
    if (ckpt.cell_active.size() != cell_count) reject("cell count mismatch");
    const FleetArenaState& a = ckpt.arena;
    if (a.window != arena.window) reject("bandwidth window mismatch");
    const std::size_t slots = a.session.size();
    bool ragged = false;
    for_each_column(a, [&](const auto& column, std::size_t per_slot) {
      ragged = ragged || (per_slot > 0 && column.size() != slots * per_slot);
    });
    if (ragged) reject("has ragged arena vectors");
    enum : std::uint8_t { kLive, kFree, kClaimed };
    std::vector<std::uint8_t> state(slots, kLive);
    for (const std::uint32_t slot : a.free_slots) {
      if (slot >= slots || state[slot] != kLive) {
        reject("free slot out of range or duplicated");
      }
      state[slot] = kFree;
    }
    if (ckpt.live != slots - a.free_slots.size()) {
      reject("live count does not match the arena");
    }
    const std::size_t levels = config.ladder_mbps.size();
    for (std::size_t s = 0; s < slots; ++s) {
      if (state[s] == kLive &&
          (a.cell[s] < first_cell || a.cell[s] >= first_cell + cell_count ||
           a.next_segment[s] >= config.segments_per_session ||
           a.level[s] >= levels || a.last_level[s] >= levels ||
           a.prev_level[s] < -1 ||
           a.prev_level[s] >= static_cast<int>(levels))) {
        reject("live slot outside the region's cells or the ladder");
      }
    }
    for (const FleetEventState& e : ckpt.events) {
      if (e.kind > kComplete) reject("event of unknown kind");
      if (e.kind == kArrive) continue;
      if (e.slot >= slots || state[e.slot] != kLive ||
          a.session[e.slot] != e.session) {
        reject("event not on its session's live slot");
      }
      state[e.slot] = kClaimed;
    }
    if (std::find(state.begin(), state.end(), kLive) != state.end()) {
      reject("live slot without a pending event");
    }
    for (const core::DecisionCacheState::Entry& entry : ckpt.cache.entries) {
      if (entry.level >= levels) reject("cache entry outside the ladder");
    }
    for (const ReservoirSamplerState* sample :
         {&ckpt.qoe_sample, &ckpt.energy_sample, &ckpt.rebuffer_sample}) {
      if (sample->capacity != config.reservoir_capacity) {
        reject("reservoir capacity mismatch");
      }
    }
  }

  /// Folds captured pending arrivals back into the cursor. They must be
  /// exactly the region's sessions arriving at or after the cut, with
  /// bit-equal times, in pop order — the arrival suffix from the first
  /// pending session on. Should rounding ever put a session before the cut
  /// and an earlier one after it, the pending sessions ahead of the
  /// all-pending tail are parked in the heap, as pop_next parks them.
  void restore_arrivals(const std::vector<Event>& captured, double cut_s) {
    std::vector<Event> expected;
    std::size_t tail = region;  // first session of the all-pending tail
    for (std::size_t s = region; s < config.num_sessions; s += num_regions) {
      seek_arrival(s);
      if (arrival_t_s < cut_s) {
        tail = s + num_regions;
      } else {
        expected.push_back(arrival_event());
      }
    }
    std::sort(expected.begin(), expected.end(),
              [](const Event& a, const Event& b) { return EventAfter{}(b, a); });
    const bool match = std::equal(
        expected.begin(), expected.end(), captured.begin(), captured.end(),
        [](const Event& a, const Event& b) {
          return a.session == b.session &&
                 std::bit_cast<std::uint64_t>(a.t_s) ==
                     std::bit_cast<std::uint64_t>(b.t_s);
        });
    if (!match) {
      throw std::invalid_argument(
          "resume_fleet: checkpoint pending arrivals do not match the "
          "arrival schedule");
    }
    for (const Event& e : expected) {
      if (static_cast<std::size_t>(e.session) < tail) heap.push(e);
    }
    seek_arrival(tail);
  }

  Shard finish() {
    shard.region.median_qoe = shard.median_qoe.value();
    shard.region.median_energy_j = shard.median_energy.value();
    return std::move(shard);
  }
};

/// Shared entry validation (satellite of DESIGN §14: reject malformed
/// configs with std::invalid_argument instead of clamping silently).
/// Returns the region count.
std::size_t validate_fleet_config(const FleetConfig& config) {
  if (config.network.num_cells == 0) {
    throw std::invalid_argument("run_fleet: zero cells");
  }
  if (config.ladder_mbps.empty()) {
    throw std::invalid_argument("run_fleet: empty bitrate ladder");
  }
  if (config.num_sessions == 0 || config.segments_per_session == 0) {
    throw std::invalid_argument("run_fleet: zero sessions or segments");
  }
  // Session ids are ints (events, arena, seed_mix lanes).
  if (config.num_sessions >
      static_cast<std::size_t>(std::numeric_limits<int>::max())) {
    throw std::invalid_argument(
        "run_fleet: num_sessions exceeds the int session-id range");
  }
  if (!(std::isfinite(config.arrival_rate_per_s) &&
        config.arrival_rate_per_s > 0.0)) {
    throw std::invalid_argument(
        "run_fleet: arrival rate must be finite and > 0");
  }
  if (!(std::isfinite(config.segment_duration_s) &&
        config.segment_duration_s > 0.0)) {
    throw std::invalid_argument(
        "run_fleet: segment duration must be finite and > 0");
  }
  for (const double mbps : config.ladder_mbps) {
    if (!(std::isfinite(mbps) && mbps > 0.0)) {
      throw std::invalid_argument(
          "run_fleet: ladder bitrates must be finite and > 0");
    }
  }
  if (config.reservoir_capacity == 0) {
    throw std::invalid_argument("run_fleet: reservoir capacity must be > 0");
  }
  if (config.regions == 0 || config.regions > config.network.num_cells) {
    throw std::invalid_argument(
        "run_fleet: regions must be in [1, num_cells]");
  }
  const FleetResilienceConfig& r = config.resilience;
  if (!(std::isfinite(r.backoff_base_s) && r.backoff_base_s > 0.0) ||
      !(std::isfinite(r.backoff_factor) && r.backoff_factor >= 1.0) ||
      !(std::isfinite(r.backoff_max_s) &&
        r.backoff_max_s >= r.backoff_base_s)) {
    throw std::invalid_argument("run_fleet: malformed backoff ladder");
  }
  if (r.max_retries == 0) {
    throw std::invalid_argument("run_fleet: max_retries must be >= 1");
  }
  if (r.shed_miss_rate_threshold <= 1.0) {
    if (!(r.shed_miss_rate_threshold >= 0.0) || r.shed_miss_window == 0 ||
        !(std::isfinite(r.shed_hold_s) && r.shed_hold_s >= 0.0)) {
      throw std::invalid_argument("run_fleet: malformed miss-rate shed rule");
    }
  }
  if (config.policy == FleetPolicy::kPlanner) {
    if (config.planner_horizon == 0) {
      throw std::invalid_argument("run_fleet: planner horizon must be > 0");
    }
    // Validate the shard cache config up front (width checks live in the
    // DecisionCache ctor) so a bad config throws here, not inside a worker.
    core::DecisionCacheConfig probe = config.planner_cache;
    probe.capacity = 0;
    const core::DecisionCache probe_cache(probe);
    (void)probe_cache;
  }
  return config.regions;
}

/// The one fleet driver: validates the config, builds the models every
/// region shares, and runs `unit(sim)` on each region's RegionSim. Regions
/// are the parallel unit; each is pure in (config, region index, checkpoint
/// region). Returns the units' results in region order.
template <class Unit>
auto run_regions(const FleetConfig& config, const Unit& unit) {
  const std::size_t regions = validate_fleet_config(config);
  const CellNetwork network(config.network);
  const qoe::QoeModel qoe_model(config.qoe);
  const power::PowerModel power_model(config.power);
  const FleetFaultModel faults(config.faults, network.num_cells());
  return util::parallel_map(
      config.exec.resolved_jobs(), regions, [&](std::size_t region) {
        RegionSim sim(config, network, qoe_model, power_model, faults, region,
                      regions);
        return unit(sim);
      });
}

/// Runs every region to the end, from the start or from `checkpoint`, then
/// merges the shards serially in region order: bit-identical at any job
/// count.
FleetMetrics run_to_end(const FleetConfig& config,
                        const FleetCheckpoint* checkpoint) {
  const std::vector<Shard> shards = run_regions(config, [&](RegionSim& sim) {
    if (checkpoint != nullptr) {
      sim.restore(checkpoint->regions[sim.region], checkpoint->checkpoint_t_s);
    }
    sim.run(std::numeric_limits<double>::infinity());
    return sim.finish();
  });
  FleetMetrics metrics;
  metrics.qoe_sample = ReservoirSampler(
      config.reservoir_capacity, seed_mix(config.seed, kReservoirLane, -3));
  metrics.energy_sample = ReservoirSampler(
      config.reservoir_capacity, seed_mix(config.seed, kReservoirLane, -4));
  metrics.rebuffer_sample = ReservoirSampler(
      config.reservoir_capacity, seed_mix(config.seed, kReservoirLane, -5));
  metrics.regions.reserve(shards.size());
  for (const Shard& shard : shards) {
    metrics.merge(shard.region);
    metrics.qoe.merge(shard.qoe);
    metrics.energy_j.merge(shard.energy_j);
    metrics.bitrate_mbps.merge(shard.bitrate_mbps);
    metrics.rebuffer_s.merge(shard.rebuffer_s);
    metrics.startup_s.merge(shard.startup_s);
    metrics.qoe_sample.merge(shard.qoe_sample);
    metrics.energy_sample.merge(shard.energy_sample);
    metrics.rebuffer_sample.merge(shard.rebuffer_sample);
    metrics.regions.push_back(shard.region);
  }
  return metrics;
}

}  // namespace

void FleetCounters::merge(const FleetCounters& other) {
  sessions += other.sessions;
  events += other.events;
  requests += other.requests;
  handoffs += other.handoffs;
  stall_events += other.stall_events;
  peak_live_sessions += other.peak_live_sessions;
  escape_handoffs += other.escape_handoffs;
  backoff_retries += other.backoff_retries;
  abandoned_sessions += other.abandoned_sessions;
  policy_sheds += other.policy_sheds;
  policy_recoveries += other.policy_recoveries;
  shed_decisions += other.shed_decisions;
  degraded_time_s += other.degraded_time_s;
  wasted_energy_j += other.wasted_energy_j;
  planner.merge(other.planner);
}

FleetMetrics run_fleet(const FleetConfig& config) {
  return run_to_end(config, nullptr);
}

FleetCheckpoint run_fleet_until(const FleetConfig& config, double t_s) {
  if (!(std::isfinite(t_s) && t_s > 0.0)) {
    throw std::invalid_argument(
        "run_fleet_until: checkpoint time must be finite and > 0");
  }
  return {.config_fingerprint = fleet_config_fingerprint(config),
          .checkpoint_t_s = t_s,
          .regions = run_regions(config, [&](RegionSim& sim) {
            sim.run(t_s);
            return sim.capture();
          })};
}

FleetMetrics resume_fleet(const FleetConfig& config,
                          const FleetCheckpoint& checkpoint) {
  if (checkpoint.config_fingerprint != fleet_config_fingerprint(config)) {
    throw std::invalid_argument(
        "resume_fleet: checkpoint fingerprint does not match the config");
  }
  if (checkpoint.regions.size() != config.regions) {
    throw std::invalid_argument(
        "resume_fleet: checkpoint region count mismatch");
  }
  return run_to_end(config, &checkpoint);
}

}  // namespace eacs::sim
