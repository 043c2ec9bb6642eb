// Deterministic fleet checkpoint/resume (DESIGN §14).
//
// The headline contract: run_fleet_until(T) + resume_fleet == run_fleet,
// EXPECT_EQ on every aggregate — not approximately, bitwise — for both
// policies, with and without faults, at several cut points including
// degenerate ones (before the first arrival, after the drain). The sidecar
// file round-trips the checkpoint exactly, and the config fingerprint
// refuses to resume under a config that would silently diverge.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "eacs/sim/fleet.h"
#include "eacs/sim/fleet_checkpoint.h"
#include "eacs/sim/fleet_faults.h"

namespace eacs::sim {
namespace {

FleetConfig small_fleet() {
  FleetConfig config;
  config.network.num_cells = 8;
  config.num_sessions = 400;
  config.arrival_rate_per_s = 4.0;
  config.segments_per_session = 12;
  config.regions = 4;
  return config;
}

FleetConfig faulted_fleet() {
  FleetConfig config = small_fleet();
  config.faults.outages.push_back(
      {.t0_s = 10.0, .t1_s = 45.0, .first_cell = 0, .num_cells = 4});
  config.faults.surges.push_back(
      {.t0_s = 5.0, .t1_s = 25.0, .rate_multiplier = 3.0});
  config.faults.seeded.horizon_s = 200.0;
  config.faults.seeded.brownout_prob = 0.4;
  config.faults.seeded.collapse_prob = 0.4;
  return config;
}

void expect_metrics_eq(const FleetMetrics& a, const FleetMetrics& b) {
  EXPECT_EQ(a.sessions, b.sessions);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.handoffs, b.handoffs);
  EXPECT_EQ(a.stall_events, b.stall_events);
  EXPECT_EQ(a.peak_live_sessions, b.peak_live_sessions);
  EXPECT_EQ(a.escape_handoffs, b.escape_handoffs);
  EXPECT_EQ(a.backoff_retries, b.backoff_retries);
  EXPECT_EQ(a.abandoned_sessions, b.abandoned_sessions);
  EXPECT_EQ(a.policy_sheds, b.policy_sheds);
  EXPECT_EQ(a.policy_recoveries, b.policy_recoveries);
  EXPECT_EQ(a.shed_decisions, b.shed_decisions);
  EXPECT_EQ(a.degraded_time_s, b.degraded_time_s);
  EXPECT_EQ(a.wasted_energy_j, b.wasted_energy_j);
  EXPECT_EQ(a.planner.plans, b.planner.plans);
  EXPECT_EQ(a.planner.cache_hits, b.planner.cache_hits);
  EXPECT_EQ(a.planner.cache_misses, b.planner.cache_misses);
  EXPECT_EQ(a.planner.cache_evictions, b.planner.cache_evictions);
  EXPECT_EQ(a.planner.model_evals(), b.planner.model_evals());
  EXPECT_EQ(a.qoe.mean(), b.qoe.mean());
  EXPECT_EQ(a.qoe.variance(), b.qoe.variance());
  EXPECT_EQ(a.energy_j.sum(), b.energy_j.sum());
  EXPECT_EQ(a.bitrate_mbps.mean(), b.bitrate_mbps.mean());
  EXPECT_EQ(a.rebuffer_s.sum(), b.rebuffer_s.sum());
  EXPECT_EQ(a.startup_s.mean(), b.startup_s.mean());
  EXPECT_EQ(a.qoe_quantile(0.5), b.qoe_quantile(0.5));
  EXPECT_EQ(a.energy_quantile(0.9), b.energy_quantile(0.9));
  EXPECT_EQ(a.rebuffer_quantile(0.99), b.rebuffer_quantile(0.99));
  ASSERT_EQ(a.regions.size(), b.regions.size());
  for (std::size_t r = 0; r < a.regions.size(); ++r) {
    EXPECT_EQ(a.regions[r].events, b.regions[r].events);
    EXPECT_EQ(a.regions[r].sessions, b.regions[r].sessions);
    EXPECT_EQ(a.regions[r].median_qoe, b.regions[r].median_qoe);
    EXPECT_EQ(a.regions[r].median_energy_j, b.regions[r].median_energy_j);
    EXPECT_EQ(a.regions[r].planner.cache_hits, b.regions[r].planner.cache_hits);
    EXPECT_EQ(a.regions[r].wasted_energy_j, b.regions[r].wasted_energy_j);
  }
}

TEST(FleetCheckpointTest, ResumeMatchesUninterruptedRun) {
  for (const FleetPolicy policy :
       {FleetPolicy::kThroughput, FleetPolicy::kPlanner}) {
    for (const bool faulted : {false, true}) {
      FleetConfig config = faulted ? faulted_fleet() : small_fleet();
      config.policy = policy;
      const FleetMetrics reference = run_fleet(config);
      for (const double cut : {0.5, 30.0, 75.0}) {
        const FleetCheckpoint checkpoint = run_fleet_until(config, cut);
        EXPECT_EQ(checkpoint.checkpoint_t_s, cut);
        const FleetMetrics resumed = resume_fleet(config, checkpoint);
        expect_metrics_eq(resumed, reference);
      }
    }
  }
}

TEST(FleetCheckpointTest, ResumeMatchesAtAnyJobCount) {
  // Checkpoint under one job count, resume under others: the §6 contract
  // extends to the cut.
  FleetConfig config = faulted_fleet();
  config.policy = FleetPolicy::kPlanner;
  config.exec = ExecutionPolicy{1};
  const FleetMetrics reference = run_fleet(config);
  const FleetCheckpoint checkpoint = run_fleet_until(config, 40.0);
  for (const std::size_t jobs : {1, 2, 8}) {
    FleetConfig resumed_config = config;
    resumed_config.exec = ExecutionPolicy{jobs};
    const FleetMetrics resumed = resume_fleet(resumed_config, checkpoint);
    expect_metrics_eq(resumed, reference);
  }
}

TEST(FleetCheckpointTest, CutAfterDrainResumesToSameResult) {
  const FleetConfig config = small_fleet();
  const FleetMetrics reference = run_fleet(config);
  // 1e9 s is long past the drain: the checkpoint holds only finished state.
  const FleetCheckpoint checkpoint = run_fleet_until(config, 1e9);
  for (const auto& region : checkpoint.regions) {
    EXPECT_TRUE(region.events.empty());
    EXPECT_EQ(region.live, 0U);
  }
  expect_metrics_eq(resume_fleet(config, checkpoint), reference);
}

TEST(FleetCheckpointTest, EventAtCutTimeBelongsToResumedRun) {
  // Arrivals land at exact multiples of 1/rate = 0.25 s. A cut at exactly
  // 0.25 must leave that arrival in the checkpoint (strict < convention), so
  // the pending event count across regions is num_sessions minus the
  // arrivals strictly before the cut (session 0 at t = 0).
  const FleetConfig config = small_fleet();
  const FleetCheckpoint checkpoint = run_fleet_until(config, 0.25);
  std::size_t pending_arrivals = 0;
  for (const auto& region : checkpoint.regions) {
    for (const auto& event : region.events) {
      if (event.kind == 0) ++pending_arrivals;
      EXPECT_GE(event.t_s, 0.25);
    }
  }
  EXPECT_EQ(pending_arrivals, config.num_sessions - 1);
}

TEST(FleetCheckpointTest, ValidatesCutTime) {
  const FleetConfig config = small_fleet();
  EXPECT_THROW(run_fleet_until(config, 0.0), std::invalid_argument);
  EXPECT_THROW(run_fleet_until(config, -1.0), std::invalid_argument);
  EXPECT_THROW(
      run_fleet_until(config, std::numeric_limits<double>::quiet_NaN()),
      std::invalid_argument);
  EXPECT_THROW(
      run_fleet_until(config, std::numeric_limits<double>::infinity()),
      std::invalid_argument);
}

TEST(FleetCheckpointTest, FingerprintRejectsForeignConfig) {
  const FleetConfig config = small_fleet();
  const FleetCheckpoint checkpoint = run_fleet_until(config, 30.0);

  // Any result-shaping change must be refused...
  FleetConfig changed = config;
  changed.seed ^= 1;
  EXPECT_THROW(resume_fleet(changed, checkpoint), std::invalid_argument);
  changed = config;
  changed.planner_alpha = 0.7;
  EXPECT_THROW(resume_fleet(changed, checkpoint), std::invalid_argument);
  changed = config;
  changed.resilience.max_retries = 3;
  EXPECT_THROW(resume_fleet(changed, checkpoint), std::invalid_argument);
  changed = config;
  changed.faults.outages.push_back({.t0_s = 1.0, .t1_s = 2.0});
  EXPECT_THROW(resume_fleet(changed, checkpoint), std::invalid_argument);
  changed = config;
  changed.ladder_mbps.back() = 5.0;
  EXPECT_THROW(resume_fleet(changed, checkpoint), std::invalid_argument);

  // ...but exec.jobs is explicitly outside the fingerprint (§6).
  FleetConfig rejobbed = config;
  rejobbed.exec = ExecutionPolicy{8};
  EXPECT_EQ(fleet_config_fingerprint(rejobbed),
            fleet_config_fingerprint(config));
}

TEST(FleetCheckpointTest, SidecarRoundTripsBitExactly) {
  FleetConfig config = faulted_fleet();
  config.policy = FleetPolicy::kPlanner;
  const FleetCheckpoint checkpoint = run_fleet_until(config, 30.0);

  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "fleet_ckpt_test.txt")
          .string();
  save_fleet_checkpoint(checkpoint, path);
  const FleetCheckpoint loaded = load_fleet_checkpoint(path);
  std::remove(path.c_str());

  // Every field of every region: events, arena, aggregator internals
  // (reservoir Rng engines, P^2 markers), shed state, cache and metrics.
  EXPECT_EQ(loaded, checkpoint);

  // And the loaded checkpoint resumes to the uninterrupted result.
  expect_metrics_eq(resume_fleet(config, loaded), run_fleet(config));
}

TEST(FleetCheckpointTest, LoadRejectsMissingTruncatedAndForeignFiles) {
  EXPECT_THROW(load_fleet_checkpoint("/nonexistent/fleet.ckpt"),
               std::runtime_error);

  const auto dir = std::filesystem::path(::testing::TempDir());
  {
    const std::string path = (dir / "fleet_ckpt_bad_magic.txt").string();
    std::ofstream out(path);
    out << "NOT_A_CHECKPOINT 1\n";
    out.close();
    EXPECT_THROW(load_fleet_checkpoint(path), std::runtime_error);
    std::remove(path.c_str());
  }
  {
    // A valid prefix cut mid-stream must throw, not fabricate state.
    const FleetCheckpoint checkpoint =
        run_fleet_until(small_fleet(), 30.0);
    const std::string full = (dir / "fleet_ckpt_full.txt").string();
    save_fleet_checkpoint(checkpoint, full);
    std::ifstream in(full);
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    in.close();
    std::remove(full.c_str());
    const std::string truncated = (dir / "fleet_ckpt_trunc.txt").string();
    std::ofstream out(truncated);
    out << contents.substr(0, contents.size() / 2);
    out.close();
    EXPECT_THROW(load_fleet_checkpoint(truncated), std::runtime_error);
    std::remove(truncated.c_str());
  }
}

/// Writes `text` to a temporary sidecar and loads it.
FleetCheckpoint load_text(const std::string& name, const std::string& text) {
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / name).string();
  {
    std::ofstream out(path);
    out << text;
  }
  struct Remove {
    std::string path;
    ~Remove() { std::remove(path.c_str()); }
  } remove{path};
  return load_fleet_checkpoint(path);
}

TEST(FleetCheckpointTest, LoadRejectsCountsBeyondTheFile) {
  // A count token larger than the rest of the file can hold is malformed
  // input: load must throw std::runtime_error before allocating for it, not
  // std::length_error or std::bad_alloc.
  const std::string head = "EACS_FLEET_CKPT 1\n1\n4629700416936869888\n";
  const std::string one_region = head + "1\n0\n0\n";
  for (const auto& [name, text] :
       std::vector<std::pair<std::string, std::string>>{
           {"regions_max.ckpt", head + "18446744073709551615\n"},
           {"regions_1e8.ckpt", head + "100000000\n0\n0\n"},
           {"events_2p62.ckpt", one_region + "4611686018427387904\n0\n"},
           {"column_max.ckpt",
            one_region + "0\n1\n18446744073709551615\n0\n"}}) {
    EXPECT_THROW(load_text(name, text), std::runtime_error) << name;
  }
}

TEST(FleetCheckpointTest, LoadRejectsTokensOutsideTheirField) {
  // A token that does not fit its field is malformed, not truncated into
  // range (257 would read as event kind 1, 2^32 as session 0).
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "fleet_ckpt_range.txt")
          .string();
  save_fleet_checkpoint(run_fleet_until(small_fleet(), 30.0), path);
  std::vector<std::string> tokens;
  {
    std::ifstream in(path);
    for (std::string token; in >> token;) tokens.push_back(token);
  }
  std::remove(path.c_str());
  // magic, version, fingerprint, cut, regions, region, live, events, then
  // the first event's t_s, session, kind, slot.
  ASSERT_GT(tokens.size(), 11U);
  ASSERT_EQ(tokens[4], "4");  // regions
  ASSERT_NE(tokens[7], "0");  // region 0 has pending events
  for (const auto& [index, value] :
       std::vector<std::pair<std::size_t, std::string>>{
           {10, "257"}, {9, "4294967296"}}) {
    std::vector<std::string> tampered = tokens;
    tampered[index] = value;
    std::string text;
    for (const std::string& token : tampered) text += token + "\n";
    EXPECT_THROW(load_text("fleet_ckpt_range_tampered.txt", text),
                 std::runtime_error)
        << "token " << index << " = " << value;
  }
}

TEST(FleetCheckpointTest, RegionCountMismatchThrows) {
  const FleetConfig config = small_fleet();
  FleetCheckpoint checkpoint = run_fleet_until(config, 30.0);
  checkpoint.regions.pop_back();
  EXPECT_THROW(resume_fleet(config, checkpoint), std::invalid_argument);
}

/// Positions of the pending arrivals (kind 0) in a region's event list.
std::vector<std::size_t> pending_arrivals(const FleetRegionCheckpoint& region) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < region.events.size(); ++i) {
    if (region.events[i].kind == 0) out.push_back(i);
  }
  return out;
}

TEST(FleetCheckpointTest, RestoreRejectsTamperedPendingArrivals) {
  // Pending arrivals are folded back into the region's arrival cursor, so a
  // checkpoint whose arrivals are not exactly the schedule's from the cut on
  // must be refused rather than silently drop or move a session.
  const FleetConfig config = faulted_fleet();  // surge-warped schedule
  const FleetCheckpoint checkpoint = run_fleet_until(config, 12.0);
  const std::vector<std::size_t> arrivals =
      pending_arrivals(checkpoint.regions[0]);
  ASSERT_GE(arrivals.size(), 3U);

  for (const std::size_t victim :
       {arrivals.front(), arrivals[arrivals.size() / 2], arrivals.back()}) {
    FleetCheckpoint dropped = checkpoint;
    auto& events = dropped.regions[0].events;
    events.erase(events.begin() + static_cast<std::ptrdiff_t>(victim));
    EXPECT_THROW(resume_fleet(config, dropped), std::invalid_argument)
        << "dropped arrival at " << victim;

    FleetCheckpoint shifted = checkpoint;
    double& t = shifted.regions[0].events[victim].t_s;
    t = std::nextafter(t, std::numeric_limits<double>::infinity());
    EXPECT_THROW(resume_fleet(config, shifted), std::invalid_argument)
        << "shifted arrival at " << victim;
  }

  // A session id swapped for another region's is refused as well.
  FleetCheckpoint renamed = checkpoint;
  renamed.regions[0].events[arrivals[1]].session += 1;
  EXPECT_THROW(resume_fleet(config, renamed), std::invalid_argument);

  // The untouched checkpoint still resumes to the uninterrupted result.
  expect_metrics_eq(resume_fleet(config, checkpoint), run_fleet(config));
}

/// small_fleet() with 30-segment sessions cut at 30 s: every region holds
/// live sessions with pending requests or completions.
struct LiveCut {
  explicit LiveCut(FleetPolicy policy = FleetPolicy::kThroughput) {
    config.segments_per_session = 30;
    config.policy = policy;
    checkpoint = run_fleet_until(config, 30.0);
  }

  FleetConfig config = small_fleet();
  FleetCheckpoint checkpoint;

  /// Region 0's first pending request or completion.
  FleetEventState& live_event(FleetCheckpoint& c) const {
    for (FleetEventState& e : c.regions[0].events) {
      if (e.kind != 0) return e;
    }
    throw std::logic_error("no live event in region 0");
  }
};

TEST(FleetCheckpointTest, RestoreRejectsUnknownEventKind) {
  const LiveCut cut;
  FleetCheckpoint tampered = cut.checkpoint;
  cut.live_event(tampered).kind = 7;
  EXPECT_THROW(resume_fleet(cut.config, tampered), std::invalid_argument);
  expect_metrics_eq(resume_fleet(cut.config, cut.checkpoint),
                    run_fleet(cut.config));
}

TEST(FleetCheckpointTest, RestoreRejectsEventOffItsSessionsSlot) {
  const LiveCut cut;
  {
    FleetCheckpoint tampered = cut.checkpoint;
    cut.live_event(tampered).slot = 1000000;
    EXPECT_THROW(resume_fleet(cut.config, tampered), std::invalid_argument);
  }
  {
    // The slot is freed (and live kept consistent) but its event remains.
    FleetCheckpoint tampered = cut.checkpoint;
    const std::uint32_t slot = cut.live_event(tampered).slot;
    tampered.regions[0].arena.free_slots.push_back(slot);
    --tampered.regions[0].live;
    EXPECT_THROW(resume_fleet(cut.config, tampered), std::invalid_argument);
  }
  {
    FleetCheckpoint tampered = cut.checkpoint;
    FleetEventState& event = cut.live_event(tampered);
    event.session += static_cast<int>(cut.config.regions);
    EXPECT_THROW(resume_fleet(cut.config, tampered), std::invalid_argument);
  }
}

TEST(FleetCheckpointTest, RestoreRejectsLiveSlotCellOutsideRegion) {
  const LiveCut cut;
  for (const std::size_t cell : {std::size_t{1000000}, std::size_t{7}}) {
    FleetCheckpoint tampered = cut.checkpoint;
    const std::uint32_t slot = cut.live_event(tampered).slot;
    tampered.regions[0].arena.cell[slot] = cell;  // region 0 owns cells 0-1
    EXPECT_THROW(resume_fleet(cut.config, tampered), std::invalid_argument)
        << "cell " << cell;
  }
}

TEST(FleetCheckpointTest, RestoreRejectsBadFreeList) {
  const LiveCut cut;
  {
    FleetCheckpoint tampered = cut.checkpoint;
    tampered.regions[0].arena.free_slots.push_back(1000000);
    EXPECT_THROW(resume_fleet(cut.config, tampered), std::invalid_argument);
  }
  {
    // A duplicated free slot, with live adjusted as if it were distinct.
    FleetCheckpoint tampered = cut.checkpoint;
    FleetRegionCheckpoint& region = tampered.regions[0];
    if (region.arena.free_slots.empty()) {
      region.arena.free_slots.push_back(cut.live_event(tampered).slot);
      --region.live;
    }
    region.arena.free_slots.push_back(region.arena.free_slots.back());
    --region.live;
    EXPECT_THROW(resume_fleet(cut.config, tampered), std::invalid_argument);
  }
}

TEST(FleetCheckpointTest, RestoreRejectsLiveCountMismatch) {
  const LiveCut cut;
  ASSERT_GT(cut.checkpoint.regions[0].live, 0U);
  for (const int delta : {-1, 1}) {
    FleetCheckpoint tampered = cut.checkpoint;
    tampered.regions[0].live += static_cast<std::size_t>(delta);
    EXPECT_THROW(resume_fleet(cut.config, tampered), std::invalid_argument)
        << "delta " << delta;
  }
}

TEST(FleetCheckpointTest, RestoreRejectsRungsAndCapacitiesOutsideTheConfig) {
  // The resumed run indexes the ladder with a live slot's rungs and cache
  // entries, the planner's horizon table with its segments left, and
  // samples into a reservoir of its capacity: each must fit the config. A cache
  // entry must also sit in its key's slot, the only one a lookup probes.
  const LiveCut cut(FleetPolicy::kPlanner);
  ASSERT_FALSE(cut.checkpoint.regions[0].cache.entries.empty());
  const std::vector<std::pair<const char*, void (*)(FleetRegionCheckpoint&,
                                                   std::uint32_t)>>
      edits = {
          {"level",
           [](FleetRegionCheckpoint& r, std::uint32_t s) {
             r.arena.level[s] = 1000000;
           }},
          {"last_level",
           [](FleetRegionCheckpoint& r, std::uint32_t s) {
             r.arena.last_level[s] = 1000000;
           }},
          {"prev_level high",
           [](FleetRegionCheckpoint& r, std::uint32_t s) {
             r.arena.prev_level[s] = 1000000;
           }},
          {"prev_level low",
           [](FleetRegionCheckpoint& r, std::uint32_t s) {
             r.arena.prev_level[s] = -2;
           }},
          {"next_segment",
           [](FleetRegionCheckpoint& r, std::uint32_t s) {
             r.arena.next_segment[s] = 30;
           }},
          {"cache entry level",
           [](FleetRegionCheckpoint& r, std::uint32_t) {
             r.cache.entries.front().level = 1000000;
           }},
          {"cache entry slot",
           [](FleetRegionCheckpoint& r, std::uint32_t) {
             // Moved to the next free slot, away from its key's home slot.
             auto& entries = r.cache.entries;
             std::size_t slot = entries.front().slot + 1;
             while (std::any_of(entries.begin(), entries.end(),
                                [&](const auto& e) { return e.slot == slot; })) {
               ++slot;
             }
             entries.front().slot = slot;
           }},
          {"reservoir capacity",
           [](FleetRegionCheckpoint& r, std::uint32_t) {
             r.qoe_sample.capacity = std::size_t{1} << 62;
           }},
      };
  for (const auto& [name, edit] : edits) {
    FleetCheckpoint tampered = cut.checkpoint;
    edit(tampered.regions[0], cut.live_event(tampered).slot);
    EXPECT_THROW(resume_fleet(cut.config, tampered), std::invalid_argument)
        << name;
  }
}

/// FNV-1a (64-bit) over a file's bytes.
std::uint64_t file_digest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c; in.get(c);) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x00000100000001b3ULL;
  }
  return h;
}

/// The FleetConfig `sim_cli --fleet --sessions 1000 --cells 16 --regions N
/// --fleet-faults --policy planner` builds (examples/sim_cli.cpp).
FleetConfig cli_faulted_planner_fleet(std::size_t regions) {
  FleetConfig config;
  config.network.num_cells = 16;
  config.num_sessions = 1000;
  config.regions = regions;
  config.policy = FleetPolicy::kPlanner;
  SeededFaultConfig& seeded = config.faults.seeded;
  seeded.horizon_s =
      static_cast<double>(config.num_sessions) / config.arrival_rate_per_s +
      300.0;
  seeded.epoch_s = 60.0;
  seeded.domain_cells =
      std::max<std::size_t>(config.network.num_cells / (2 * regions), 1);
  seeded.outage_prob = 0.25;
  seeded.outage_duration_s = 45.0;
  seeded.brownout_prob = 0.35;
  seeded.brownout_factor = 0.4;
  seeded.collapse_prob = 0.35;
  seeded.collapse_db = -18.0;
  seeded.surge_prob = 0.3;
  seeded.surge_multiplier = 3.0;
  return config;
}

/// sim_cli's machine-parsable counter line.
std::string counter_line(const FleetMetrics& m) {
  char line[512];
  std::snprintf(line, sizeof(line),
                "fleet-counters: events=%zu requests=%zu handoffs=%zu "
                "stalls=%zu sessions=%zu abandoned=%zu escapes=%zu "
                "retries=%zu sheds=%zu recoveries=%zu shed_decisions=%zu",
                m.events, m.requests, m.handoffs, m.stall_events, m.sessions,
                m.abandoned_sessions, m.escape_handoffs, m.backoff_retries,
                m.policy_sheds, m.policy_recoveries, m.shed_decisions);
  return line;
}

TEST(FleetCheckpointTest, KillAndResumeMatchesPinnedCounters) {
  // The CI kill-and-resume smoke, in-process: a 1k-session faulted planner
  // fleet cut at 120 s, saved, loaded and resumed at 8 jobs must print the
  // pinned counters, as must the uninterrupted run at 2 jobs. The sidecar's
  // size and digest pin the codec's bytes.
  const std::string pin =
      "fleet-counters: events=63214 requests=30000 handoffs=1305 "
      "stalls=4481 sessions=1000 abandoned=0 escapes=270 retries=993 "
      "sheds=0 recoveries=0 shed_decisions=0";
  FleetConfig config = cli_faulted_planner_fleet(4);
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "fleet_cli.ckpt")
          .string();
  save_fleet_checkpoint(run_fleet_until(config, 120.0), path);
  EXPECT_EQ(std::filesystem::file_size(path), 346572U);
  EXPECT_EQ(file_digest(path), 0x2b0a5909a58ddf3bULL);
  const FleetCheckpoint loaded = load_fleet_checkpoint(path);
  std::remove(path.c_str());

  config.exec = ExecutionPolicy{8};
  EXPECT_EQ(counter_line(resume_fleet(config, loaded)), pin);
  config.exec = ExecutionPolicy{2};
  EXPECT_EQ(counter_line(run_fleet(config)), pin);
  EXPECT_THROW(resume_fleet(cli_faulted_planner_fleet(8), loaded),
               std::invalid_argument);
}

TEST(FleetCheckpointTest, CutAtSurgeWarpedArrivalResumesBitIdentical) {
  // Cut exactly at a surge-warped (non-grid) arrival time: that arrival
  // belongs to the resumed run, which must still match bit for bit.
  for (const FleetPolicy policy :
       {FleetPolicy::kThroughput, FleetPolicy::kPlanner}) {
    FleetConfig config = faulted_fleet();  // 3x surge over [5, 25) s
    config.policy = policy;
    const FleetMetrics reference = run_fleet(config);
    const FleetFaultModel model(config.faults, config.network.num_cells);
    for (const std::size_t session : {22UL, 57UL, 103UL}) {
      const double cut = model.arrival_time(session, config.arrival_rate_per_s);
      ASSERT_GT(cut, 5.0);
      ASSERT_LT(cut, 25.0);
      // Off the unwarped 1 / rate grid.
      ASSERT_NE(std::floor(cut * config.arrival_rate_per_s),
                cut * config.arrival_rate_per_s);
      const FleetCheckpoint checkpoint = run_fleet_until(config, cut);
      bool pending = false;
      for (const auto& event :
           checkpoint.regions[session % config.regions].events) {
        pending = pending || (event.kind == 0 &&
                              event.session == static_cast<int>(session) &&
                              event.t_s == cut);
      }
      EXPECT_TRUE(pending) << "session " << session;
      expect_metrics_eq(resume_fleet(config, checkpoint), reference);
    }
  }
}

TEST(FleetCheckpointTest, CutsAroundAnOvershootingSurgeEdgeResume) {
  // At this rate session 1000's warped arrival rounds a few ulps past the
  // surge's end edge (FleetFaultModel::arrival_floor): the arrival cursor
  // parks it in the heap. Cuts at the edge, at the session's own time and
  // just after it all resume to the uninterrupted run.
  FleetConfig config = small_fleet();
  config.num_sessions = 1200;
  config.arrival_rate_per_s = 12.068671662407787;
  const double edge = 4.7989999999999995 + 15.028250729180353;
  config.faults.surges.push_back({.t0_s = 4.7989999999999995,
                                  .t1_s = edge,
                                  .rate_multiplier = 5.1942279721273543});
  const FleetFaultModel model(config.faults, config.network.num_cells);
  const double t = model.arrival_time(1000, config.arrival_rate_per_s);
  ASSERT_GT(t, edge);
  const FleetMetrics reference = run_fleet(config);
  for (const double cut :
       {edge, t, std::nextafter(t, std::numeric_limits<double>::infinity())}) {
    expect_metrics_eq(resume_fleet(config, run_fleet_until(config, cut)),
                      reference);
  }
}

}  // namespace
}  // namespace eacs::sim
