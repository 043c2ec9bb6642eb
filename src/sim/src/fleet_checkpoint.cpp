#include "eacs/sim/fleet_checkpoint.h"

#include <array>
#include <bit>
#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace eacs::sim {
namespace {

constexpr char kMagic[] = "EACS_FLEET_CKPT";
constexpr std::uint64_t kVersion = 1;

// ---------------------------------------------------------------------------
// Config fingerprint: FNV-1a over every result-shaping field's bit pattern.

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;

  void u64(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFFULL;
      h *= 0x00000100000001b3ULL;
    }
  }
  void f64(double v) noexcept { u64(std::bit_cast<std::uint64_t>(v)); }
  void sz(std::size_t v) noexcept { u64(static_cast<std::uint64_t>(v)); }
  void b(bool v) noexcept { u64(v ? 1 : 0); }
};

}  // namespace

std::uint64_t fleet_config_fingerprint(const FleetConfig& config) {
  Fnv f;
  const CellNetworkConfig& n = config.network;
  f.sz(n.num_cells);
  f.f64(n.mean_capacity_mbps);
  f.f64(n.capacity_spread);
  f.f64(n.capacity_sway);
  f.f64(n.capacity_period_s);
  f.f64(n.signal_best_dbm);
  f.f64(n.signal_worst_dbm);
  f.f64(n.signal_swing_db);
  f.f64(n.signal_period_s);
  f.u64(n.seed);

  f.sz(config.num_sessions);
  f.f64(config.arrival_rate_per_s);
  f.f64(config.segment_duration_s);
  f.sz(config.segments_per_session);
  f.sz(config.ladder_mbps.size());
  for (const double mbps : config.ladder_mbps) f.f64(mbps);
  f.f64(config.buffer_threshold_s);
  f.f64(config.startup_buffer_s);
  f.f64(config.abr_safety);
  f.sz(config.bandwidth_window);
  f.f64(config.vibration_cap_threshold);
  f.sz(config.vibration_rung_cap);
  f.f64(config.handoff_hysteresis_db);
  f.u64(static_cast<std::uint64_t>(config.policy));
  f.sz(config.planner_horizon);
  f.sz(config.planner_startup_level);
  f.f64(config.planner_alpha);
  const core::DecisionCacheConfig& c = config.planner_cache;
  f.b(c.exact);
  f.f64(c.buffer_bucket_s);
  f.f64(c.bandwidth_buckets_per_octave);
  f.f64(c.vibration_bucket);
  f.f64(c.confidence_bucket);
  f.f64(c.signal_bucket_dbm);
  f.sz(c.prev_level_bucket);
  f.sz(c.capacity);
  f.sz(config.regions);
  f.sz(config.reservoir_capacity);

  const FleetFaultSpec& spec = config.faults;
  f.sz(spec.outages.size());
  for (const CellOutage& o : spec.outages) {
    f.f64(o.t0_s);
    f.f64(o.t1_s);
    f.sz(o.first_cell);
    f.sz(o.num_cells);
  }
  f.sz(spec.brownouts.size());
  for (const CapacityBrownout& b : spec.brownouts) {
    f.f64(b.t0_s);
    f.f64(b.t1_s);
    f.sz(b.first_cell);
    f.sz(b.num_cells);
    f.f64(b.capacity_factor);
  }
  f.sz(spec.collapses.size());
  for (const SignalCollapse& s : spec.collapses) {
    f.f64(s.t0_s);
    f.f64(s.t1_s);
    f.sz(s.first_cell);
    f.sz(s.num_cells);
    f.f64(s.offset_db);
  }
  f.sz(spec.surges.size());
  for (const ArrivalSurge& s : spec.surges) {
    f.f64(s.t0_s);
    f.f64(s.t1_s);
    f.f64(s.rate_multiplier);
  }
  const SeededFaultConfig& g = spec.seeded;
  f.f64(g.horizon_s);
  f.f64(g.epoch_s);
  f.sz(g.domain_cells);
  f.f64(g.outage_prob);
  f.f64(g.outage_duration_s);
  f.f64(g.brownout_prob);
  f.f64(g.brownout_factor);
  f.f64(g.brownout_duration_s);
  f.f64(g.collapse_prob);
  f.f64(g.collapse_db);
  f.f64(g.collapse_duration_s);
  f.f64(g.surge_prob);
  f.f64(g.surge_multiplier);
  f.f64(g.surge_duration_s);
  f.u64(g.seed);

  const FleetResilienceConfig& r = config.resilience;
  f.f64(r.backoff_base_s);
  f.f64(r.backoff_factor);
  f.f64(r.backoff_max_s);
  f.sz(r.max_retries);
  f.sz(r.shed_live_threshold);
  f.sz(r.shed_live_recover);
  f.f64(r.shed_miss_rate_threshold);
  f.sz(r.shed_miss_window);
  f.f64(r.shed_hold_s);

  const qoe::QoeModelParams& q = config.qoe;
  f.f64(q.a);
  f.f64(q.b);
  f.f64(q.kappa);
  f.f64(q.alpha_v);
  f.f64(q.beta_r);
  f.f64(q.switch_penalty);
  f.f64(q.rebuffer_penalty_per_s);
  f.f64(q.mos_min);
  f.f64(q.mos_max);

  const power::PowerModelParams& p = config.power;
  f.f64(p.e_ref_j_per_mb);
  f.f64(p.s_ref_dbm);
  f.f64(p.k_per_db);
  f.f64(p.e_min_j_per_mb);
  f.f64(p.e_max_j_per_mb);
  f.f64(p.p_base_w);
  f.f64(p.c0_w);
  f.f64(p.c1_w_per_mbps);
  f.f64(p.p_pause_w);
  f.f64(p.tail_energy_j);

  f.u64(config.seed);
  return f.h;
}

namespace {

// ---------------------------------------------------------------------------
// Sidecar token stream. Every value is one decimal u64 token; doubles are
// written as their IEEE-754 bit patterns (std::bit_cast), signed integers in
// two's complement — exact, portable, diffable. A vector is its size token
// followed by its elements; a std::array is its elements alone.
//
// Each state type has one io() listing its fields. Their order is the
// format, and the same list serves the Writer and the Reader.

template <class Io>
void io(Io& fields, RngState& s) {
  fields(s.words, s.cached_normal, s.has_cached_normal);
}
template <class Io>
void io(Io& fields, RunningStatsState& s) {
  fields(s.count, s.mean, s.m2, s.sum, s.min, s.max);
}
template <class Io>
void io(Io& fields, ReservoirSamplerState& s) {
  fields(s.capacity, s.count, s.rng, s.items);
}
template <class Io>
void io(Io& fields, P2QuantileState& s) {
  fields(s.p, s.count, s.heights, s.positions, s.desired, s.increments);
}
template <class Io>
void io(Io& fields, core::DecisionKey& k) {
  fields(k.ladder_id, k.alpha_bits, k.buffer, k.bandwidth, k.vibration,
         k.confidence, k.signal, k.remaining, k.prev_level);
}
template <class Io>
void io(Io& fields, core::CostStats& s) {
  fields(s.qoe_model_evals, s.power_model_evals, s.edge_evals, s.tables_built,
         s.plans, s.cache_hits, s.cache_misses, s.cache_evictions);
}
template <class Io>
void io(Io& fields, FleetRegionMetrics& m) {
  fields(m.region, m.first_cell, m.num_cells, m.sessions, m.events,
         m.requests, m.handoffs, m.stall_events, m.peak_live_sessions,
         m.escape_handoffs, m.backoff_retries, m.abandoned_sessions,
         m.policy_sheds, m.policy_recoveries, m.shed_decisions,
         m.degraded_time_s, m.wasted_energy_j, m.median_qoe,
         m.median_energy_j, m.planner);
}
template <class Io>
void io(Io& fields, core::DecisionCacheStats& s) {
  fields(s.hits, s.misses, s.evictions);
}
template <class Io>
void io(Io& fields, core::DecisionCacheState::Entry& e) {
  fields(e.slot, e.key, e.level);
}
template <class Io>
void io(Io& fields, core::DecisionCacheState& c) {
  fields(c.stats, c.entries);
}
template <class Io>
void io(Io& fields, FleetEventState& e) {
  fields(e.t_s, e.session, e.kind, e.slot);
}
template <class Io>
void io(Io& fields, FleetArenaState& a) {
  fields(a.window);
  for_each_column(a, [&](auto& column, std::size_t) { fields(column); });
}
template <class Io>
void io(Io& fields, FleetShedState& s) {
  fields(s.live_shed, s.miss_shed, s.shed_until_s, s.window_consults,
         s.window_misses);
}
template <class Io>
void io(Io& fields, FleetRegionCheckpoint& r) {
  fields(r.region, r.live, r.events, r.arena, r.cell_active, r.metrics, r.qoe,
         r.energy_j, r.bitrate_mbps, r.rebuffer_s, r.startup_s, r.qoe_sample,
         r.energy_sample, r.rebuffer_sample, r.median_qoe, r.median_energy,
         r.shed, r.cache);
}
template <class Io>
void io(Io& fields, FleetCheckpoint& c) {
  fields(c.config_fingerprint, c.checkpoint_t_s, c.regions);
}

struct Writer {
  std::ostream& out;

  template <class... Ts>
  void operator()(Ts&... xs) {
    (put(xs), ...);
  }

  void token(std::uint64_t v) { out << v << '\n'; }

  template <class T>
  void put(T& x) {
    if constexpr (std::is_floating_point_v<T>) {
      token(std::bit_cast<std::uint64_t>(x));
    } else if constexpr (std::is_integral_v<T>) {
      token(static_cast<std::uint64_t>(x));
    } else {
      io(*this, x);
    }
  }
  template <class T>
  void put(std::vector<T>& xs) {
    token(xs.size());
    for (T& x : xs) put(x);
  }
  template <class T, std::size_t N>
  void put(std::array<T, N>& xs) {
    for (T& x : xs) put(x);
  }
};

struct Reader {
  std::istream& in;
  std::uint64_t size_bytes;  ///< of the whole file

  template <class... Ts>
  void operator()(Ts&... xs) {
    (get(xs), ...);
  }

  std::uint64_t token() {
    std::uint64_t v = 0;
    if (!(in >> v)) malformed();
    return v;
  }
  [[noreturn]] static void malformed() {
    throw std::runtime_error(
        "load_fleet_checkpoint: truncated or malformed checkpoint");
  }

  template <class T>
  void get(T& x) {
    if constexpr (std::is_floating_point_v<T>) {
      x = std::bit_cast<T>(token());
    } else if constexpr (std::is_integral_v<T>) {
      // A token must be the Writer's encoding of the value it decodes to,
      // so an out-of-range one is refused rather than truncated.
      const std::uint64_t v = token();
      x = static_cast<T>(v);
      if (static_cast<std::uint64_t>(x) != v) malformed();
    } else {
      io(*this, x);
    }
  }
  /// Every element is at least one token, and every token after the size
  /// is at least two bytes (a separator and a digit): a size above half the
  /// bytes left is refused before anything is allocated.
  template <class T>
  void get(std::vector<T>& xs) {
    const std::uint64_t n = token();
    const std::streamoff at = in.tellg();
    if (n > 0 &&
        (at < 0 || n > (size_bytes - static_cast<std::uint64_t>(at)) / 2)) {
      malformed();
    }
    xs.clear();
    if constexpr (std::is_arithmetic_v<T>) xs.reserve(n);
    while (xs.size() < n) get(xs.emplace_back());
  }
  template <class T, std::size_t N>
  void get(std::array<T, N>& xs) {
    for (T& x : xs) get(x);
  }
};

}  // namespace

void save_fleet_checkpoint(const FleetCheckpoint& checkpoint,
                           const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("save_fleet_checkpoint: cannot open " + path);
  }
  out << kMagic << ' ' << kVersion << '\n';
  // The Writer only reads through the non-const reference io() takes.
  Writer{out}(const_cast<FleetCheckpoint&>(checkpoint));
  out.flush();
  if (!out.good()) {
    throw std::runtime_error("save_fleet_checkpoint: write failed on " + path);
  }
}

FleetCheckpoint load_fleet_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::ate);
  if (!in) {
    throw std::runtime_error("load_fleet_checkpoint: cannot open " + path);
  }
  const std::streamoff size_bytes = in.tellg();
  in.seekg(0);
  std::string magic;
  std::uint64_t version = 0;
  if (size_bytes < 0 || !(in >> magic >> version) || magic != kMagic ||
      version != kVersion) {
    throw std::runtime_error(
        "load_fleet_checkpoint: bad magic or unsupported version in " + path);
  }
  FleetCheckpoint checkpoint;
  Reader{in, static_cast<std::uint64_t>(size_bytes)}(checkpoint);
  return checkpoint;
}

}  // namespace eacs::sim
