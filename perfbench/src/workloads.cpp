#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "eacs/abr/bba.h"
#include "eacs/abr/festive.h"
#include "eacs/abr/fixed.h"
#include "eacs/core/cost_stats.h"
#include "eacs/core/online.h"
#include "eacs/core/optimal.h"
#include "eacs/core/task.h"
#include "eacs/media/bitrate_ladder.h"
#include "eacs/media/catalogue.h"
#include "eacs/player/session_invariants.h"
#include "eacs/sim/evaluation.h"
#include "eacs/sim/fleet.h"
#include "eacs/sim/fleet_checkpoint.h"
#include "eacs/sim/fleet_fault_study.h"
#include "eacs/sim/metrics.h"
#include "eacs/trace/session.h"
#include "eacs/util/stats.h"
#include "eacs/util/thread_pool.h"

namespace perfbench {
namespace {

using namespace eacs;

// ---------------------------------------------------------------------------
// Metric catalogue (BENCHMARK.json lists the same names and units).

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"sessions_per_s", "1/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"qoe_mean", "MOS"},
    {"qoe_p05", "MOS"},
    {"energy_j_per_session", "J"},
    {"startup_s_per_session", "s"},
    {"wait_s_per_session", "s"},
    {"served_ratio", "ratio"},
};

constexpr MetricDef kPerLayer[] = {
    {"sim.fleet.events", "count"},
    {"sim.fleet.requests", "count"},
    {"sim.fleet.events_per_request", "ratio"},
    {"sim.fleet.ns_per_event", "ns"},
    {"sim.fleet.handoffs", "count"},
    {"sim.fleet.stall_events", "count"},
    {"sim.fleet.peak_live_sessions", "count"},
    {"sim.fleet.region_events_max_over_mean", "ratio"},
    {"util.parallel_map.speedup", "x"},
    {"core.decision_cache.hits", "count"},
    {"core.decision_cache.misses", "count"},
    {"core.decision_cache.evictions", "count"},
    {"core.decision_cache.hit_rate", "ratio"},
    {"core.planner.plans", "count"},
    {"core.planner.model_evals", "count"},
    {"core.planner.plans_per_session", "ratio"},
    {"core.optimal.plan_s", "s"},
    {"core.optimal.model_evals", "count"},
    {"player.run_s.youtube", "s"},
    {"player.run_s.festive", "s"},
    {"player.run_s.bba", "s"},
    {"player.run_s.ours", "s"},
    {"player.run_s.optimal", "s"},
    {"player.segments", "count"},
    {"player.stall_events", "count"},
    {"player.invariant_violations", "count"},
    {"sim.compute_metrics_s", "s"},
    {"trace.build_session_s", "s"},
    {"trace.samples", "count"},
    {"sim.fleet.escape_handoffs", "count"},
    {"sim.fleet.backoff_retries", "count"},
    {"sim.fleet.abandoned_sessions", "count"},
    {"sim.fleet.degraded_time_s", "s"},
    {"sim.fleet.wasted_energy_j", "J"},
    {"sim.fleet.policy_sheds", "count"},
    {"sim.fleet.shed_decisions", "count"},
    {"sim.fleet_checkpoint.cut_s", "s"},
    {"sim.fleet_checkpoint.save_s", "s"},
    {"sim.fleet_checkpoint.load_s", "s"},
    {"sim.fleet_checkpoint.resume_s", "s"},
    {"sim.fleet_checkpoint.sidecar_bytes", "bytes"},
    {"sim.fleet_checkpoint.overhead_ratio", "ratio"},
    {"bench.trace_overhead", "ratio"},
};

constexpr std::size_t kSetupRepeats = 5;  // setup_s is their median
constexpr std::size_t kMinRepeats = 3;    // timed repeats, per mode

// ---------------------------------------------------------------------------
// Small utilities.

/// SplitMix64 finalizer over (seed, lane): independent per-purpose seeds
/// derived from the one workload seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t lane) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (lane + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// FNV-1a over bit patterns: two results digest equal iff every folded
/// field is bit-identical.
class Digest {
 public:
  Digest& add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xFFU;
      hash_ *= 0x100000001B3ULL;
    }
    return *this;
  }
  Digest& add(double v) { return add(std::bit_cast<std::uint64_t>(v)); }
  Digest& add(const RunningStats& s) {
    const RunningStatsState st = s.state();
    return add(static_cast<std::uint64_t>(st.count))
        .add(st.mean).add(st.m2).add(st.sum).add(st.min).add(st.max);
  }
  Digest& add(const ReservoirSampler& r) {
    add(static_cast<std::uint64_t>(r.count()));
    for (const double x : r.sample()) add(x);
    return *this;
  }
  Digest& add(const core::CostStats& c) {
    return add(c.qoe_model_evals).add(c.power_model_evals).add(c.edge_evals)
        .add(c.tables_built).add(c.plans).add(c.cache_hits)
        .add(c.cache_misses).add(c.cache_evictions);
  }
  std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

std::uint64_t digest(const sim::FleetMetrics& m) {
  Digest d;
  for (const std::size_t v :
       {m.sessions, m.events, m.requests, m.handoffs, m.stall_events,
        m.peak_live_sessions, m.escape_handoffs, m.backoff_retries,
        m.abandoned_sessions, m.policy_sheds, m.policy_recoveries,
        m.shed_decisions}) {
    d.add(static_cast<std::uint64_t>(v));
  }
  d.add(m.degraded_time_s).add(m.wasted_energy_j).add(m.planner);
  d.add(m.qoe).add(m.energy_j).add(m.bitrate_mbps).add(m.rebuffer_s)
      .add(m.startup_s);
  d.add(m.qoe_sample).add(m.energy_sample).add(m.rebuffer_sample);
  for (const sim::FleetRegionMetrics& r : m.regions) {
    for (const std::size_t v :
         {r.region, r.sessions, r.events, r.requests, r.handoffs,
          r.stall_events, r.peak_live_sessions, r.escape_handoffs,
          r.backoff_retries, r.abandoned_sessions, r.policy_sheds,
          r.shed_decisions}) {
      d.add(static_cast<std::uint64_t>(v));
    }
    d.add(r.degraded_time_s).add(r.wasted_energy_j).add(r.median_qoe)
        .add(r.median_energy_j).add(r.planner);
  }
  return d.value();
}

std::uint64_t digest(const std::vector<sim::SessionMetrics>& rows) {
  Digest d;
  for (const sim::SessionMetrics& r : rows) {
    for (const char c : r.algorithm) d.add(static_cast<std::uint64_t>(c));
    d.add(static_cast<std::uint64_t>(r.session_id));
    d.add(r.total_energy_j).add(r.base_energy_j).add(r.extra_energy_j)
        .add(r.mean_qoe).add(r.mean_bitrate_mbps).add(r.downloaded_mb)
        .add(r.rebuffer_s).add(r.startup_delay_s).add(r.wasted_energy_j);
    d.add(static_cast<std::uint64_t>(r.rebuffer_events))
        .add(static_cast<std::uint64_t>(r.switch_count));
  }
  return d.value();
}

std::uint64_t digest(const std::vector<trace::SessionTraces>& sessions) {
  Digest d;
  for (const trace::SessionTraces& s : sessions) {
    for (const auto& p : s.signal_dbm.samples()) d.add(p.t_s).add(p.value);
    for (const auto& p : s.throughput_mbps.samples()) d.add(p.t_s).add(p.value);
    for (const auto& a : s.accel) d.add(a.t_s).add(a.x).add(a.y).add(a.z);
  }
  return d.value();
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// "median 1.23 | p90 1.40 | n=42" for one timing sample set, with the
/// tail percentile chosen by the ten-beyond rule.
std::string describe(const std::vector<double>& xs, const char* unit) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "median %.6g %s", median(xs), unit);
  std::string out = buf;
  if (const auto p = highest_supported_percentile(xs.size())) {
    std::snprintf(buf, sizeof buf, " | p%g %.6g %s", *p,
                  nearest_rank(xs, *p), unit);
    out += buf;
  }
  return out + " | n=" + std::to_string(xs.size());
}

// ---------------------------------------------------------------------------
// Run context shared by the workloads.

class Run {
 public:
  Run(const Options& options, SpanRecorder* recorder)
      : options_(options), recorder_(recorder) {}

  const Options& options() const noexcept { return options_; }
  bool trace() const noexcept { return recorder_ != nullptr; }
  /// The recorder when `traced`, else null (the untraced code path).
  SpanRecorder* rec(bool traced = true) const noexcept {
    return traced ? recorder_ : nullptr;
  }

  void check(bool ok, const std::string& what) {
    if (!ok) report_.failures.push_back(what);
  }
  /// Position in the failure list; pass it to count_operation.
  std::size_t mark() const noexcept { return report_.failures.size(); }
  /// Closes one checked library call that attempted `sessions` sessions and
  /// completed `completed` of them. It failed if any check failed since
  /// `mark`, and then none of its sessions count as served.
  void count_operation(std::size_t mark, double sessions, double completed) {
    ++report_.attempted;
    sessions_ += sessions;
    if (report_.failures.size() > mark) {
      ++report_.failed;
    } else {
      served_ += completed;
    }
  }
  /// Sessions served / sessions attempted over every operation so far.
  double served_ratio() const noexcept { return ratio(served_, sessions_); }

  void set(const std::string& name, double value) {
    for (const MetricDef& def : defs()) {
      if (name == def.name) {
        values_[name] = value;
        return;
      }
    }
    throw std::logic_error("perfbench: unknown metric " + name);
  }
  void note(std::string line) { report_.notes.push_back(std::move(line)); }

  /// Records the timing sample set and its tail summary as a note.
  void note_timing(const std::string& what, const std::vector<double>& xs,
                   const char* unit) {
    note(what + ": " + describe(xs, unit));
  }

  Report finish() {
    for (const MetricDef& def : defs()) {
      const auto it = values_.find(def.name);
      report_.metrics.push_back(
          {def.name, it == values_.end() ? 0.0 : it->second, def.unit});
    }
    return std::move(report_);
  }

 private:
  /// The metrics this run reports: per-layer when traced, else end-to-end.
  std::span<const MetricDef> defs() const noexcept {
    if (trace()) return kPerLayer;
    return kEndToEnd;
  }

  const Options& options_;
  SpanRecorder* recorder_;
  Report report_;
  std::map<std::string, double> values_;
  double sessions_ = 0.0;
  double served_ = 0.0;
};

/// Wall seconds of each set-up and each timed repeat. In a traced run the
/// repeats alternate untraced and traced, so the tracing overhead is
/// measured over the same stretch of time as the traced numbers.
struct Repeats {
  std::vector<double> setup_s;
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
};

/// Runs setup(), then op(traced) until `seconds` have passed and each mode
/// has run at least kMinRepeats times. setup() runs again after each of the
/// first kSetupRepeats - 1 repeats: machine load comes in bursts, so set-ups
/// spread over the run vary less than back-to-back ones. Both callables
/// return the wall seconds of their timed part.
template <typename Setup, typename Op>
Repeats measure(const Run& run, Setup&& setup, Op&& op) {
  Repeats out;
  const Clock::time_point start = Clock::now();
  out.setup_s.push_back(setup());
  for (std::size_t i = 0;; ++i) {
    const bool traced = run.trace() && i % 2 == 1;
    (traced ? out.traced_s : out.untraced_s).push_back(op(traced));
    if (out.setup_s.size() < kSetupRepeats) out.setup_s.push_back(setup());
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    const bool enough =
        out.setup_s.size() >= kSetupRepeats &&
        out.untraced_s.size() >= kMinRepeats &&
        (!run.trace() || out.traced_s.size() >= kMinRepeats);
    if (enough && elapsed >= run.options().seconds) break;
  }
  return out;
}

/// Sessions per second at each repeat's wall time.
std::vector<double> rates(double sessions, const std::vector<double>& walls) {
  std::vector<double> out;
  for (const double w : walls) out.push_back(ratio(sessions, w));
  return out;
}

void report_rates(Run& run, double sessions, const Repeats& repeats) {
  const std::vector<double> untraced = rates(sessions, repeats.untraced_s);
  run.note_timing("repeat wall (untraced)", repeats.untraced_s, "s");
  if (run.trace()) {
    const std::vector<double> traced = rates(sessions, repeats.traced_s);
    run.note_timing("repeat wall (traced)", repeats.traced_s, "s");
    run.set("bench.trace_overhead", ratio(median(traced), median(untraced)));
  } else {
    run.set("sessions_per_s", median(untraced));
  }
}

// ---------------------------------------------------------------------------
// Fleet workloads: fleet_vod, fleet_planner, fleet_faults.

std::vector<double> evaluation_ladder() {
  const media::BitrateLadder ladder = media::BitrateLadder::evaluation14();
  std::vector<double> out;
  for (std::size_t l = 0; l < ladder.size(); ++l) out.push_back(ladder.bitrate(l));
  return out;
}

/// The seeded fault overlay run_fleet_fault_study builds for kCombined at
/// intensity 1.0 — every family at half strength, from the study's default
/// knobs and seed — with 2-cell fault domains. The study's spec_for is private
/// to fleet_fault_study.cpp, so its scaling rules are restated here.
sim::FleetFaultSpec combined_faults(const sim::FleetConfig& fleet) {
  const sim::FleetFaultStudyConfig study;
  constexpr double kLevel = 0.5;
  const auto lerp_from_one = [](double full) {
    return 1.0 + (full - 1.0) * kLevel;
  };
  sim::FleetFaultSpec spec;
  sim::SeededFaultConfig& gen = spec.seeded;
  gen.horizon_s =
      static_cast<double>(fleet.num_sessions) / fleet.arrival_rate_per_s +
      4.0 * static_cast<double>(fleet.segments_per_session) *
          fleet.segment_duration_s;
  gen.epoch_s = study.epoch_s;
  gen.domain_cells = 2;
  gen.seed = study.seed;
  gen.outage_prob = study.outage_prob * kLevel;
  gen.outage_duration_s = study.outage_duration_s;
  gen.brownout_prob = study.brownout_prob * kLevel;
  gen.brownout_factor = lerp_from_one(study.brownout_factor);
  gen.brownout_duration_s = study.brownout_duration_s;
  gen.collapse_prob = study.collapse_prob * kLevel;
  gen.collapse_db = study.collapse_db * kLevel;
  gen.collapse_duration_s = study.collapse_duration_s;
  gen.surge_prob = study.surge_prob * kLevel;
  gen.surge_multiplier = lerp_from_one(study.surge_multiplier);
  gen.surge_duration_s = study.surge_duration_s;
  return spec;
}

sim::FleetConfig fleet_config(const std::string& workload, std::uint64_t seed,
                              std::size_t jobs) {
  sim::FleetConfig config;  // 16 cells, 8 regions, 5 rungs, 30 segments
  config.seed = derive_seed(seed, 1);
  config.exec.jobs = jobs;
  if (workload == "fleet_vod") {
    config.num_sessions = 200000;
    config.policy = sim::FleetPolicy::kThroughput;
    return config;
  }
  config.policy = sim::FleetPolicy::kPlanner;
  config.ladder_mbps = evaluation_ladder();
  config.segments_per_session = 60;
  if (workload == "fleet_planner") {
    config.num_sessions = 100000;
    return config;
  }
  config.num_sessions = 20000;
  config.regions = 4;
  config.faults = combined_faults(config);
  return config;
}

void check_fleet(Run& run, const sim::FleetConfig& config,
                 const sim::FleetMetrics& m) {
  const bool clean = config.faults.empty();
  const bool planner = config.policy == sim::FleetPolicy::kPlanner;
  const core::CostStats& p = m.planner;
  run.check(m.sessions + m.abandoned_sessions == config.num_sessions,
            "sessions + abandoned_sessions == num_sessions");
  run.check(m.sessions > 0, "some sessions complete");
  if (clean) {
    run.check(m.requests == m.sessions * config.segments_per_session,
              "clean run: requests == sessions x segments_per_session");
    run.check(m.abandoned_sessions == 0 && m.escape_handoffs == 0 &&
                  m.backoff_retries == 0 && m.degraded_time_s == 0.0 &&
                  m.wasted_energy_j == 0.0,
              "clean run: degradation counters are exactly 0");
  }
  if (planner) {
    run.check(p.cache_hits + p.cache_misses + m.shed_decisions ==
                  m.requests - m.sessions,
              "planner ledger: hits + misses + shed_decisions == "
              "requests - sessions");
    run.check(p.plans == p.cache_misses, "planner: one plan per cache miss");
  } else {
    run.check(p.cache_hits == 0 && p.cache_misses == 0 &&
                  p.cache_evictions == 0 && p.plans == 0 &&
                  p.model_evals() == 0,
              "throughput policy: planner and cache counters are exactly 0");
  }
  const double finite[] = {m.qoe.mean(), m.energy_j.mean(),
                           m.rebuffer_s.mean(), m.startup_s.mean(),
                           m.qoe_quantile(0.05)};
  run.check(std::all_of(std::begin(finite), std::end(finite),
                        [](double x) { return std::isfinite(x); }),
            "fleet aggregates are finite");
}

/// One fleet result's simulated end-to-end metrics.
void set_fleet_outcomes(Run& run, const sim::FleetMetrics& m,
                        double served_ratio) {
  run.set("qoe_mean", m.qoe.mean());
  run.set("qoe_p05", m.qoe_quantile(0.05));
  run.set("energy_j_per_session", m.energy_j.mean());
  run.set("startup_s_per_session", m.startup_s.mean());
  run.set("wait_s_per_session", m.startup_s.mean() + m.rebuffer_s.mean());
  run.set("served_ratio", served_ratio);
}

void set_fleet_layers(Run& run, const sim::FleetMetrics& m, double run_s) {
  const core::CostStats& p = m.planner;
  const double events = static_cast<double>(m.events);
  run.set("sim.fleet.events", events);
  run.set("sim.fleet.requests", static_cast<double>(m.requests));
  run.set("sim.fleet.events_per_request",
          ratio(events, static_cast<double>(m.requests)));
  run.set("sim.fleet.ns_per_event", ratio(run_s * 1e9, events));
  run.set("sim.fleet.handoffs", static_cast<double>(m.handoffs));
  run.set("sim.fleet.stall_events", static_cast<double>(m.stall_events));
  run.set("sim.fleet.peak_live_sessions",
          static_cast<double>(m.peak_live_sessions));
  double max_events = 0.0;
  for (const auto& r : m.regions) {
    max_events = std::max(max_events, static_cast<double>(r.events));
  }
  run.set("sim.fleet.region_events_max_over_mean",
          ratio(max_events * static_cast<double>(m.regions.size()), events));
  run.set("core.decision_cache.hits", static_cast<double>(p.cache_hits));
  run.set("core.decision_cache.misses", static_cast<double>(p.cache_misses));
  run.set("core.decision_cache.evictions",
          static_cast<double>(p.cache_evictions));
  run.set("core.decision_cache.hit_rate",
          ratio(static_cast<double>(p.cache_hits),
                static_cast<double>(p.cache_hits + p.cache_misses)));
  run.set("core.planner.plans", static_cast<double>(p.plans));
  run.set("core.planner.model_evals", static_cast<double>(p.model_evals()));
  run.set("core.planner.plans_per_session",
          ratio(static_cast<double>(p.plans), static_cast<double>(m.sessions)));
  run.set("sim.fleet.escape_handoffs", static_cast<double>(m.escape_handoffs));
  run.set("sim.fleet.backoff_retries", static_cast<double>(m.backoff_retries));
  run.set("sim.fleet.abandoned_sessions",
          static_cast<double>(m.abandoned_sessions));
  run.set("sim.fleet.degraded_time_s", m.degraded_time_s);
  run.set("sim.fleet.wasted_energy_j", m.wasted_energy_j);
  run.set("sim.fleet.policy_sheds", static_cast<double>(m.policy_sheds));
  run.set("sim.fleet.shed_decisions", static_cast<double>(m.shed_decisions));
}

/// Setup for a fleet workload: generate the config, then run a cold fleet on
/// a twentieth of the sessions, which pays the process's one-time costs
/// (first-touch page faults, allocator growth) before timing starts.
sim::FleetConfig fleet_setup(Run& run, std::uint64_t parent) {
  ScopedSpan span(run.rec(), "setup", parent);
  sim::FleetConfig config =
      fleet_config(run.options().workload, run.options().seed,
                   run.options().jobs);
  sim::FleetConfig warm = config;
  warm.num_sessions = std::max<std::size_t>(config.num_sessions / 20, 1);
  if (!warm.faults.empty()) warm.faults = combined_faults(warm);
  {
    ScopedSpan call(run.rec(), "sim.run_fleet.warmup", span.id());
    const std::size_t mark = run.mark();
    const sim::FleetMetrics m = sim::run_fleet(warm);
    check_fleet(run, warm, m);
    run.count_operation(mark, static_cast<double>(warm.num_sessions),
                        static_cast<double>(m.sessions));
  }
  return config;
}

void run_fleet_workload(Run& run, std::uint64_t root) {
  const Options& opt = run.options();
  const bool checkpointing = opt.workload == "fleet_faults";

  sim::FleetConfig config;
  const auto setup = [&] {
    const Clock::time_point t0 = Clock::now();
    config = fleet_setup(run, root);
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  const std::string sidecar =
      (std::filesystem::path(opt.out_dir) /
       ("perfbench-" + opt.workload + "-" + std::to_string(opt.seed) + ".ckpt"))
          .string();

  sim::FleetMetrics first;
  std::uint64_t first_digest = 0;
  bool have_first = false;
  std::vector<double> cut_s, save_s, load_s, resume_s, run_s;
  std::uintmax_t sidecar_bytes = 0;

  const Repeats repeats = measure(run, setup, [&](bool traced) {
    const std::size_t mark = run.mark();
    SpanRecorder* rec = run.rec(traced);
    sim::FleetMetrics m;
    double wall = 0.0;
    if (!checkpointing) {
      ScopedSpan span(rec, "sim.run_fleet", root);
      m = sim::run_fleet(config);
      wall = span.elapsed_s();
      if (traced) run_s.push_back(wall);
    } else {
      ScopedSpan cycle(rec, "sim.fleet_checkpoint.cycle", root);
      sim::FleetCheckpoint cut;
      {
        ScopedSpan s(rec, "sim.fleet_checkpoint.cut", cycle.id());
        // Cut mid-way through the arrivals.
        cut = sim::run_fleet_until(
            config, 0.5 * static_cast<double>(config.num_sessions) /
                        config.arrival_rate_per_s);
        cut_s.push_back(s.elapsed_s());
      }
      {
        ScopedSpan s(rec, "sim.fleet_checkpoint.save", cycle.id());
        sim::save_fleet_checkpoint(cut, sidecar);
        save_s.push_back(s.elapsed_s());
      }
      sidecar_bytes = std::filesystem::file_size(sidecar);
      sim::FleetCheckpoint loaded;
      {
        ScopedSpan s(rec, "sim.fleet_checkpoint.load", cycle.id());
        loaded = sim::load_fleet_checkpoint(sidecar);
        load_s.push_back(s.elapsed_s());
      }
      {
        ScopedSpan s(rec, "sim.fleet_checkpoint.resume", cycle.id());
        m = sim::resume_fleet(config, loaded);
        resume_s.push_back(s.elapsed_s());
      }
      wall = cycle.elapsed_s();
      std::filesystem::remove(sidecar);
    }
    check_fleet(run, config, m);
    const std::uint64_t d = digest(m);
    if (!have_first) {
      first = m;
      first_digest = d;
      have_first = true;
    }
    run.check(d == first_digest,
              "repeat of the same seed is bit-identical to the first");
    run.count_operation(mark, static_cast<double>(config.num_sessions),
                        static_cast<double>(m.sessions));
    return wall;
  });

  // The resumed fleet must equal one uninterrupted run, bit for bit. This
  // run is also the base of the checkpoint overhead ratio.
  double uninterrupted_s = 0.0;
  if (checkpointing) {
    ScopedSpan span(run.rec(), "sim.run_fleet", root);
    const std::size_t mark = run.mark();
    const sim::FleetMetrics whole = sim::run_fleet(config);
    uninterrupted_s = span.elapsed_s();
    check_fleet(run, config, whole);
    run.check(digest(whole) == first_digest,
              "fleet_faults: resumed FleetMetrics bit-identical to an "
              "uninterrupted run_fleet");
    run.count_operation(mark, static_cast<double>(config.num_sessions),
                        static_cast<double>(whole.sessions));
    run_s.push_back(uninterrupted_s);
  }

  run.note_timing("setup", repeats.setup_s, "s");
  report_rates(run, static_cast<double>(first.sessions), repeats);
  if (!run.trace()) {
    run.set("setup_s", median(repeats.setup_s));
    run.set("peak_rss_mb", peak_rss_mib());
    set_fleet_outcomes(run, first, run.served_ratio());
    return;
  }

  // Traced run: determinism across job counts, and the parallel speedup of
  // the same call at 1 job.
  sim::FleetConfig serial = config;
  serial.exec.jobs = 1;
  double serial_s = 0.0;
  {
    ScopedSpan span(run.rec(), "sim.run_fleet.jobs1", root);
    const std::size_t mark = run.mark();
    const sim::FleetMetrics m = sim::run_fleet(serial);
    serial_s = span.elapsed_s();
    check_fleet(run, serial, m);
    run.check(digest(m) == first_digest,
              "jobs=1 result bit-identical to jobs=" + std::to_string(opt.jobs));
    run.count_operation(mark, static_cast<double>(serial.num_sessions),
                        static_cast<double>(m.sessions));
  }
  const double parallel_s = median(run_s);
  run.note_timing("sim.run_fleet span (jobs=" + std::to_string(opt.jobs) + ")",
                  run_s, "s");
  run.note("sim.run_fleet span (jobs=1): " + std::to_string(serial_s) + " s");
  run.set("util.parallel_map.speedup", ratio(serial_s, parallel_s));
  set_fleet_layers(run, first, parallel_s);
  if (checkpointing) {
    run.note_timing("checkpoint cut", cut_s, "s");
    run.note_timing("checkpoint resume", resume_s, "s");
    run.set("sim.fleet_checkpoint.cut_s", median(cut_s));
    run.set("sim.fleet_checkpoint.save_s", median(save_s));
    run.set("sim.fleet_checkpoint.load_s", median(load_s));
    run.set("sim.fleet_checkpoint.resume_s", median(resume_s));
    run.set("sim.fleet_checkpoint.sidecar_bytes",
            static_cast<double>(sidecar_bytes));
    run.set("sim.fleet_checkpoint.overhead_ratio",
            ratio(median(cut_s) + median(save_s) + median(load_s) +
                      median(resume_s),
                  uninterrupted_s));
  }
}

// ---------------------------------------------------------------------------
// trace_eval: Table V sessions through the five-algorithm evaluation.

constexpr std::size_t kTraceSessions = 40;
constexpr const char* kAlgorithms[] = {"youtube", "festive", "bba", "ours",
                                       "optimal"};

std::vector<media::SessionSpec> trace_specs(std::uint64_t seed) {
  const auto& table_v = media::evaluation_sessions();
  std::vector<media::SessionSpec> specs;
  for (std::size_t i = 0; i < kTraceSessions; ++i) {
    media::SessionSpec spec = table_v[i % table_v.size()];
    spec.id = static_cast<int>(i);
    spec.seed = derive_seed(seed, 100 + i);
    specs.push_back(spec);
  }
  return specs;
}

/// What one traced pass produced and counted.
struct TracedPass {
  std::vector<sim::SessionMetrics> rows;
  std::size_t segments = 0;
  std::size_t stall_events = 0;
  std::size_t violations = 0;
  core::CostStats optimal;  ///< OptimalPlanner::plan counters
  core::CostStats online;   ///< every other planner call (Ours)
};

/// One traced pass: Evaluation::run's per-session work, unrolled so each
/// layer call gets its own span. Rows come out in Evaluation::run's order, so
/// they must equal its rows bit for bit.
TracedPass traced_evaluation(const sim::Evaluation& evaluation,
                             const std::vector<trace::SessionTraces>& sessions,
                             std::size_t jobs, SpanRecorder* rec,
                             std::uint64_t parent) {
  const sim::EvaluationConfig& cfg = evaluation.config();
  const qoe::QoeModel qoe_model(cfg.qoe);
  const power::PowerModel power_model(cfg.power);
  core::ObjectiveConfig objective_config;
  objective_config.alpha = cfg.alpha;
  objective_config.buffer_threshold_s = cfg.player.buffer_threshold_s;
  objective_config.context_aware = cfg.context_aware;
  const core::Objective objective(qoe_model, power_model, objective_config);

  const auto run_session = [&](std::size_t s) {
    const trace::SessionTraces& session = sessions[s];
    ScopedSpan session_span(rec, "sim.evaluation.session", parent);
    TracedPass out;
    const core::CostStatsScope online_scope(out.online);
    const media::VideoManifest manifest = evaluation.manifest_for(session.spec);
    const player::PlayerSimulator simulator(manifest, cfg.player);

    abr::FixedBitrate youtube;
    abr::Festive festive;
    abr::Bba bba(5.0, cfg.player.buffer_threshold_s);
    core::OnlineBitrateSelector ours(
        objective, {.startup_level = cfg.online_startup_level, .cache = nullptr});
    core::OptimalPlan plan;
    {
      ScopedSpan span(rec, "core.optimal.plan", session_span.id());
      const core::CostStatsScope scope(out.optimal);
      const auto tasks = core::build_task_environments(manifest, session);
      plan = core::OptimalPlanner(objective).plan(tasks);
    }
    core::PlannedPolicy optimal(std::move(plan));

    player::AbrPolicy* policies[] = {&youtube, &festive, &bba, &ours, &optimal};
    for (std::size_t a = 0; a < std::size(policies); ++a) {
      player::PlaybackResult playback;
      {
        ScopedSpan span(rec, std::string("player.run.") + kAlgorithms[a],
                        session_span.id());
        playback = simulator.run(*policies[a], session);
      }
      out.violations += player::SessionInvariantChecker::check_result(
                            playback, manifest.ladder().size())
                            .size();
      out.segments += playback.tasks.size();
      out.stall_events += playback.rebuffer_events;
      ScopedSpan span(rec, "sim.compute_metrics", session_span.id());
      out.rows.push_back(sim::compute_metrics(policies[a]->name(),
                                              session.spec.id, playback,
                                              manifest, qoe_model, power_model));
    }
    return out;
  };

  TracedPass total;
  const auto per_session = util::parallel_map(jobs, sessions.size(), run_session);
  for (const TracedPass& p : per_session) {
    total.rows.insert(total.rows.end(), p.rows.begin(), p.rows.end());
    total.segments += p.segments;
    total.stall_events += p.stall_events;
    total.violations += p.violations;
    total.optimal.merge(p.optimal);
    total.online.merge(p.online);
  }
  return total;
}

/// Durations, in seconds, of every span named `name`.
std::vector<double> span_seconds(const std::vector<Span>& spans,
                                 const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name == name) out.push_back(static_cast<double>(s.duration_ns()) * 1e-9);
  }
  return out;
}

void check_rows(Run& run, const std::vector<sim::SessionMetrics>& rows) {
  run.check(rows.size() == kTraceSessions * std::size(kAlgorithms),
            "trace_eval: one row per (algorithm, session)");
  for (const sim::SessionMetrics& r : rows) {
    if (!(std::isfinite(r.mean_qoe) && std::isfinite(r.total_energy_j) &&
          r.mean_qoe >= 1.0 && r.mean_qoe <= 5.0 && r.total_energy_j > 0.0 &&
          r.rebuffer_s >= 0.0 && r.startup_delay_s >= 0.0)) {
      run.check(false, "trace_eval: row " + r.algorithm + "/" +
                           std::to_string(r.session_id) +
                           " has a non-finite or out-of-range metric");
      return;
    }
  }
}

void run_trace_eval(Run& run, std::uint64_t root) {
  const Options& opt = run.options();
  const std::vector<media::SessionSpec> specs = trace_specs(opt.seed);

  // Setup: synthesize the session traces (signal, throughput, calibrated
  // accelerometer) from the re-seeded Table V specs.
  std::vector<trace::SessionTraces> sessions;
  std::uint64_t traces_digest = 0;
  const auto setup = [&] {
    ScopedSpan span(run.rec(), "setup", root);
    const std::size_t mark = run.mark();
    sessions = util::parallel_map(opt.jobs, specs.size(), [&](std::size_t s) {
      ScopedSpan build(run.rec(), "trace.build_session", span.id());
      return trace::build_session(specs[s]);
    });
    const double wall = span.elapsed_s();
    const std::uint64_t d = digest(sessions);
    if (traces_digest == 0) traces_digest = d;
    run.check(d == traces_digest, "trace synthesis is deterministic");
    run.count_operation(mark, kTraceSessions, kTraceSessions);
    return wall;
  };

  sim::EvaluationConfig cfg;
  cfg.exec.jobs = opt.jobs;
  const sim::Evaluation evaluation(cfg);

  std::vector<sim::SessionMetrics> first;
  std::uint64_t first_digest = 0;
  TracedPass traced_totals;
  std::size_t traced_passes = 0;
  const Repeats repeats = measure(run, setup, [&](bool traced) {
    const std::size_t mark = run.mark();
    double wall = 0.0;
    std::vector<sim::SessionMetrics> rows;
    if (!traced) {
      ScopedSpan span(nullptr, "sim.evaluation.run");
      rows = evaluation.run(sessions).rows;
      wall = span.elapsed_s();
    } else {
      ScopedSpan span(run.rec(), "sim.evaluation.pass", root);
      TracedPass pass =
          traced_evaluation(evaluation, sessions, opt.jobs, run.rec(), span.id());
      wall = span.elapsed_s();
      run.check(pass.violations == 0,
                "trace_eval: check_result clean for every replay");
      traced_totals.violations += pass.violations;
      traced_totals.segments = pass.segments;
      traced_totals.stall_events = pass.stall_events;
      traced_totals.optimal = pass.optimal;
      traced_totals.online = pass.online;
      ++traced_passes;
      rows = std::move(pass.rows);
    }
    check_rows(run, rows);
    const std::uint64_t d = digest(rows);
    if (first.empty()) {
      first = rows;
      first_digest = d;
    }
    run.check(d == first_digest,
              traced ? "traced pass rows bit-identical to Evaluation::run"
                     : "repeat of the same seed is bit-identical to the first");
    run.count_operation(mark, kTraceSessions, kTraceSessions);
    return wall;
  });
  run.note_timing("setup", repeats.setup_s, "s");
  report_rates(run, static_cast<double>(kTraceSessions), repeats);

  if (!run.trace()) {
    std::vector<double> qoe, energy, startup, wait;
    for (const sim::SessionMetrics& r : first) {
      if (r.algorithm != "Ours") continue;
      qoe.push_back(r.mean_qoe);
      energy.push_back(r.total_energy_j);
      startup.push_back(r.startup_delay_s);
      wait.push_back(r.startup_delay_s + r.rebuffer_s);
    }
    run.set("setup_s", median(repeats.setup_s));
    run.set("peak_rss_mb", peak_rss_mib());
    run.set("qoe_mean", eacs::mean(qoe));
    run.set("qoe_p05", eacs::percentile(qoe, 5.0));
    run.set("energy_j_per_session", eacs::mean(energy));
    run.set("startup_s_per_session", eacs::mean(startup));
    run.set("wait_s_per_session", eacs::mean(wait));
    run.set("served_ratio", run.served_ratio());
    return;
  }

  // Traced run: determinism and speedup of Evaluation::run across job counts.
  sim::EvaluationConfig serial_cfg = cfg;
  serial_cfg.exec.jobs = 1;
  const sim::Evaluation serial(serial_cfg);
  const auto timed_run = [&](const sim::Evaluation& e, const char* span_name,
                             const std::string& what) {
    ScopedSpan span(run.rec(), span_name, root);
    const std::size_t mark = run.mark();
    const auto rows = e.run(sessions).rows;
    const double wall = span.elapsed_s();
    check_rows(run, rows);
    run.check(digest(rows) == first_digest, what);
    run.count_operation(mark, kTraceSessions, kTraceSessions);
    return wall;
  };
  std::vector<double> serial_s, parallel_s;
  for (std::size_t i = 0; i < kMinRepeats; ++i) {
    serial_s.push_back(timed_run(
        serial, "sim.evaluation.run.jobs1",
        "jobs=1 rows bit-identical to jobs=" + std::to_string(opt.jobs)));
    parallel_s.push_back(
        timed_run(evaluation, "sim.evaluation.run",
                  "repeat of the same seed is bit-identical to the first"));
  }
  run.set("util.parallel_map.speedup", ratio(median(serial_s), median(parallel_s)));

  const std::vector<Span> spans = run.rec()->spans();
  // The part of each set-up its build_session spans cover: the set-up span
  // minus its self time.
  std::vector<double> covered;
  for (const Span& s : spans) {
    if (s.name != "setup") continue;
    covered.push_back(
        static_cast<double>(s.duration_ns() - self_time_ns(s, children_of(spans, s.id))) *
        1e-9);
  }
  run.set("trace.build_session_s", median(covered));
  run.note("trace.build_session_s / setup: " +
           std::to_string(ratio(median(covered), median(repeats.setup_s))));
  double samples = 0.0;
  for (const auto& s : sessions) {
    samples += static_cast<double>(s.signal_dbm.size() +
                                   s.throughput_mbps.size() + s.accel.size());
  }
  run.set("trace.samples", samples);
  for (const char* algo : kAlgorithms) {
    const auto xs = span_seconds(spans, std::string("player.run.") + algo);
    run.note_timing(std::string("player.run.") + algo, xs, "s");
    run.set(std::string("player.run_s.") + algo, median(xs));
  }
  const auto plan_s = span_seconds(spans, "core.optimal.plan");
  const auto metrics_s = span_seconds(spans, "sim.compute_metrics");
  run.note_timing("core.optimal.plan", plan_s, "s");
  run.note_timing("sim.compute_metrics", metrics_s, "s");
  run.set("core.optimal.plan_s", median(plan_s));
  run.set("sim.compute_metrics_s", median(metrics_s));
  run.set("core.optimal.model_evals",
          static_cast<double>(traced_totals.optimal.model_evals()));
  const core::CostStats& online = traced_totals.online;
  run.set("core.planner.plans", static_cast<double>(online.plans));
  run.set("core.planner.model_evals", static_cast<double>(online.model_evals()));
  run.set("core.planner.plans_per_session",
          ratio(static_cast<double>(online.plans),
                static_cast<double>(kTraceSessions)));
  run.set("player.segments", static_cast<double>(traced_totals.segments));
  run.set("player.stall_events", static_cast<double>(traced_totals.stall_events));
  run.set("player.invariant_violations",
          static_cast<double>(traced_totals.violations));
  run.note("traced passes: " + std::to_string(traced_passes));
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "fleet_vod", "fleet_planner", "fleet_faults", "trace_eval"};
  return names;
}

Report run_workload(const Options& options, SpanRecorder* recorder) {
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), options.workload) == names.end()) {
    throw std::invalid_argument("unknown workload: " + options.workload);
  }
  Run run(options, recorder);
  {
    ScopedSpan root(run.rec(), "workload." + options.workload);
    if (options.workload == "trace_eval") {
      run_trace_eval(run, root.id());
    } else {
      run_fleet_workload(run, root.id());
    }
  }
  return run.finish();
}

}  // namespace perfbench
