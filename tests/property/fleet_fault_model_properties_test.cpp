// Property suite for FleetFaultModel's indexed queries (DESIGN §14).
//
// The model answers cell queries from a per-cell span table and arrival
// queries by binary search over the surge profile. Both must be bit-equal to
// the plain scans they replace, which are copied here as the reference: a
// linear pass over every materialized episode for the cell queries, and a
// backward walk over the rate profile for arrival_time. Specs are random
// scripted overlays built to stress the span sweep (overlapping episodes,
// touching intervals with t1 == t0, shared edges across kinds, ranges over
// several cells, neutral factors and signed-zero offsets) plus seeded ones.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "eacs/sim/fleet_faults.h"
#include "eacs/util/rng.h"

namespace eacs::sim {
namespace {

constexpr std::size_t kCells = 12;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// --- reference scans (the pre-index query loops) ---------------------------

bool covers(std::size_t first, std::size_t count, std::size_t cell) {
  return cell >= first && cell - first < count;
}

bool active(double t0, double t1, double t_s) { return t_s >= t0 && t_s < t1; }

bool scan_dead(const FleetFaultModel& m, std::size_t cell, double t_s) {
  for (const CellOutage& o : m.outages()) {
    if (active(o.t0_s, o.t1_s, t_s) && covers(o.first_cell, o.num_cells, cell)) {
      return true;
    }
  }
  return false;
}

double scan_capacity(const FleetFaultModel& m, std::size_t cell, double t_s) {
  double factor = 1.0;
  for (const CapacityBrownout& b : m.brownouts()) {
    if (active(b.t0_s, b.t1_s, t_s) && covers(b.first_cell, b.num_cells, cell)) {
      factor = std::min(factor, b.capacity_factor);
    }
  }
  return factor;
}

double scan_offset(const FleetFaultModel& m, std::size_t cell, double t_s) {
  double offset = 0.0;
  for (const SignalCollapse& c : m.collapses()) {
    if (active(c.t0_s, c.t1_s, t_s) && covers(c.first_cell, c.num_cells, cell)) {
      offset = std::min(offset, c.offset_db);
    }
  }
  return offset;
}

struct SurgeSegment {
  double t0_s;
  double rate_mult;
  double cum_units;
};

/// The model's surge profile, rebuilt the way its constructor builds it.
std::vector<SurgeSegment> reference_profile(
    const std::vector<ArrivalSurge>& surges) {
  std::vector<SurgeSegment> profile;
  if (surges.empty()) return profile;
  std::vector<double> edges{0.0};
  for (const ArrivalSurge& s : surges) {
    if (s.t0_s > 0.0) edges.push_back(s.t0_s);
    if (s.t1_s > 0.0) edges.push_back(s.t1_s);
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  for (const double t0 : edges) {
    double mult = 1.0;
    for (const ArrivalSurge& s : surges) {
      if (active(s.t0_s, s.t1_s, t0)) mult = std::max(mult, s.rate_multiplier);
    }
    if (!profile.empty() && profile.back().rate_mult == mult) continue;
    profile.push_back({t0, mult, 0.0});
  }
  for (std::size_t i = 1; i < profile.size(); ++i) {
    profile[i].cum_units =
        profile[i - 1].cum_units +
        profile[i - 1].rate_mult * (profile[i].t0_s - profile[i - 1].t0_s);
  }
  if (profile.size() == 1 && profile[0].rate_mult == 1.0) profile.clear();
  return profile;
}

double scan_arrival(const std::vector<SurgeSegment>& profile,
                    std::size_t session, double rate) {
  const double target = static_cast<double>(session) / rate;
  if (profile.empty()) return target;
  std::size_t i = profile.size() - 1;
  while (i > 0 && profile[i].cum_units > target) --i;
  const SurgeSegment& seg = profile[i];
  return seg.t0_s + (target - seg.cum_units) / seg.rate_mult;
}

// --- spec generators -------------------------------------------------------

/// Random scripted overlay. Times come from a coarse grid so edges collide
/// across episodes and kinds; a share of episodes start exactly where the
/// previous one ended.
FleetFaultSpec random_scripted_spec(std::uint64_t seed) {
  Rng rng(seed);
  FleetFaultSpec spec;
  double last_t1 = 0.0;
  const auto interval = [&](double& t0, double& t1) {
    t0 = rng.bernoulli(0.3) ? last_t1
                            : 0.5 * static_cast<double>(rng.uniform_int(0, 80));
    if (rng.bernoulli(0.1)) t0 += rng.uniform(0.0, 1.0);  // off-grid edge
    t1 = t0 + 0.5 * static_cast<double>(rng.uniform_int(1, 30));
    last_t1 = t1;
  };
  const auto cell_range = [&](std::size_t& first, std::size_t& count) {
    const auto cells = static_cast<std::int64_t>(kCells);
    first = static_cast<std::size_t>(rng.uniform_int(0, cells - 1));
    count = static_cast<std::size_t>(
        rng.uniform_int(1, cells - static_cast<std::int64_t>(first)));
  };
  const std::int64_t episodes = rng.uniform_int(1, 30);
  for (std::int64_t e = 0; e < episodes; ++e) {
    switch (rng.uniform_int(0, 2)) {
      case 0: {
        CellOutage o;
        interval(o.t0_s, o.t1_s);
        cell_range(o.first_cell, o.num_cells);
        spec.outages.push_back(o);
        break;
      }
      case 1: {
        CapacityBrownout b;
        interval(b.t0_s, b.t1_s);
        cell_range(b.first_cell, b.num_cells);
        const double factors[] = {1.0, 0.5, 0.25, 0.8, rng.uniform(0.01, 1.0)};
        b.capacity_factor = factors[rng.uniform_int(0, 4)];
        spec.brownouts.push_back(b);
        break;
      }
      default: {
        SignalCollapse c;
        interval(c.t0_s, c.t1_s);
        cell_range(c.first_cell, c.num_cells);
        const double offsets[] = {0.0, -0.0, -6.0, -18.0, rng.uniform(-40.0, 0.0)};
        c.offset_db = offsets[rng.uniform_int(0, 4)];
        spec.collapses.push_back(c);
        break;
      }
    }
  }
  return spec;
}

FleetFaultSpec random_seeded_spec(std::uint64_t seed) {
  Rng rng(seed);
  FleetFaultSpec spec;
  SeededFaultConfig& gen = spec.seeded;
  gen.horizon_s = rng.uniform(100.0, 900.0);
  gen.epoch_s = 0.5 * static_cast<double>(rng.uniform_int(20, 120));
  gen.domain_cells = static_cast<std::size_t>(rng.uniform_int(1, 5));
  gen.outage_prob = rng.uniform(0.0, 0.6);
  gen.outage_duration_s = rng.uniform(5.0, 90.0);
  gen.brownout_prob = rng.uniform(0.0, 0.6);
  gen.brownout_factor = rng.uniform(0.1, 1.0);
  gen.brownout_duration_s = rng.uniform(5.0, 120.0);
  gen.collapse_prob = rng.uniform(0.0, 0.6);
  gen.collapse_db = rng.uniform(-30.0, 0.0);
  gen.collapse_duration_s = rng.uniform(5.0, 90.0);
  gen.seed = rng.next_u64();
  // Scripted episodes on top, sharing the seeded epoch edges.
  spec.outages.push_back({gen.epoch_s, 2.0 * gen.epoch_s, 0, 3});
  spec.brownouts.push_back({0.0, 3.0 * gen.epoch_s, 2, 4, 0.6});
  return spec;
}

/// Every episode edge, both neighbouring doubles of each, and points before
/// the first and after the last edge.
std::vector<double> query_times(const FleetFaultModel& m) {
  std::vector<double> edges;
  const auto add = [&](double t0, double t1) {
    edges.push_back(t0);
    edges.push_back(t1);
  };
  for (const CellOutage& o : m.outages()) add(o.t0_s, o.t1_s);
  for (const CapacityBrownout& b : m.brownouts()) add(b.t0_s, b.t1_s);
  for (const SignalCollapse& c : m.collapses()) add(c.t0_s, c.t1_s);
  std::vector<double> times;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double e : edges) {
    times.push_back(e);
    times.push_back(std::nextafter(e, -kInf));
    times.push_back(std::nextafter(e, kInf));
  }
  if (!edges.empty()) {
    const auto [lo, hi] = std::minmax_element(edges.begin(), edges.end());
    times.push_back(*lo - 1.0);
    times.push_back(*hi + 1.0);
  }
  times.push_back(-kInf);
  times.push_back(kInf);
  return times;
}

void expect_index_matches_scan(const FleetFaultModel& m) {
  const std::vector<double> times = query_times(m);
  // Every cell, plus one past the network (healthy by definition).
  for (std::size_t cell = 0; cell <= kCells; ++cell) {
    for (const double t : times) {
      const CellFaultState state = m.cell_state(cell, t);
      const bool dead = scan_dead(m, cell, t);
      const double factor = scan_capacity(m, cell, t);
      const double offset = scan_offset(m, cell, t);
      EXPECT_EQ(state.dead, dead) << "cell " << cell << " t " << t;
      EXPECT_EQ(bits(state.capacity_factor), bits(factor))
          << "cell " << cell << " t " << t;
      EXPECT_EQ(bits(state.signal_offset_db), bits(offset))
          << "cell " << cell << " t " << t;
      EXPECT_EQ(m.cell_dead(cell, t), dead);
      EXPECT_EQ(bits(m.capacity_factor(cell, t)), bits(factor));
      EXPECT_EQ(bits(m.signal_offset_db(cell, t)), bits(offset));
      if (::testing::Test::HasFailure()) return;
    }
  }
}

class FleetFaultIndexProperties
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FleetFaultIndexProperties, ScriptedSpansMatchEpisodeScan) {
  for (std::uint64_t k = 0; k < 25; ++k) {
    const FleetFaultModel model(random_scripted_spec(GetParam() * 1000 + k),
                                kCells);
    expect_index_matches_scan(model);
    ASSERT_FALSE(HasFailure()) << "spec " << k;
  }
}

TEST_P(FleetFaultIndexProperties, SeededSpansMatchEpisodeScan) {
  const FleetFaultModel model(random_seeded_spec(GetParam()), kCells);
  EXPECT_FALSE(model.outages().empty() && model.brownouts().empty() &&
               model.collapses().empty());
  expect_index_matches_scan(model);
}

TEST_P(FleetFaultIndexProperties, ArrivalTimeMatchesProfileWalk) {
  Rng rng(GetParam());
  FleetFaultSpec spec;
  const std::int64_t surges = rng.uniform_int(1, 6);
  for (std::int64_t i = 0; i < surges; ++i) {
    const double t0 = rng.bernoulli(0.5)
                          ? static_cast<double>(rng.uniform_int(0, 60))
                          : rng.uniform(0.0, 60.0);
    // The first surge always binds; later ones may be neutral (< 1).
    const double mult = i > 0 && rng.bernoulli(0.2) ? 0.5 : rng.uniform(1.5, 6.0);
    spec.surges.push_back({t0, t0 + rng.uniform(0.5, 25.0), mult});
  }
  const FleetFaultModel model(spec, kCells);
  const std::vector<SurgeSegment> profile = reference_profile(spec.surges);
  ASSERT_FALSE(profile.empty());

  // Every cum_units edge and its neighbours, hit exactly: session s at rate
  // s / target, nudged until the division lands on the target bit for bit.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::size_t hit = 0;
  std::size_t tried = 0;
  for (const SurgeSegment& seg : profile) {
    for (const double target : {seg.cum_units, std::nextafter(seg.cum_units, -kInf),
                                std::nextafter(seg.cum_units, kInf)}) {
      if (!(target > 0.0)) continue;
      ++tried;
      for (const std::size_t session : {1UL, 7UL, 1000UL}) {
        double rate = static_cast<double>(session) / target;
        for (int step = 0; step < 8 && static_cast<double>(session) / rate != target;
             ++step) {
          rate = std::nextafter(rate, static_cast<double>(session) / rate > target
                                          ? kInf
                                          : 0.0);
        }
        if (static_cast<double>(session) / rate != target) continue;
        ++hit;
        EXPECT_EQ(bits(model.arrival_time(session, rate)),
                  bits(scan_arrival(profile, session, rate)))
            << "target " << target;
        break;
      }
    }
  }
  EXPECT_GE(2 * hit, tried);  // most edges are reachable exactly

  // Random targets across and beyond the profile.
  for (int i = 0; i < 2000; ++i) {
    const auto session = static_cast<std::size_t>(rng.uniform_int(0, 1'000'000));
    const double rate = rng.uniform(0.5, 20'000.0);
    EXPECT_EQ(bits(model.arrival_time(session, rate)),
              bits(scan_arrival(profile, session, rate)));
  }
}

TEST_P(FleetFaultIndexProperties, ArrivalFloorBoundsEveryLaterArrival) {
  Rng rng(GetParam() + 17);
  FleetFaultSpec spec;
  for (int i = 0; i < 3; ++i) {
    const double t0 = rng.uniform(0.0, 40.0);
    spec.surges.push_back(
        {t0, t0 + rng.uniform(0.1, 20.0), rng.uniform(1.0, 7.0)});
  }
  const FleetFaultModel model(spec, kCells);
  const double rate = rng.uniform(0.5, 50.0);
  constexpr std::size_t kSessions = 3000;
  std::vector<double> later_min(kSessions + 1,
                                std::numeric_limits<double>::infinity());
  for (std::size_t s = kSessions; s-- > 0;) {
    later_min[s] = std::min(later_min[s + 1], model.arrival_time(s, rate));
  }
  for (std::size_t s = 0; s < kSessions; ++s) {
    EXPECT_LE(model.arrival_floor(s, rate), later_min[s]) << "session " << s;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FleetFaultIndexProperties,
                         ::testing::Values(1ULL, 2ULL, 3ULL, 42ULL, 1337ULL,
                                           0xFA17ULL, 0xBEEFULL, 9001ULL));

TEST(FleetFaultIndexTest, OvershootingSurgeEdgeLowersTheFloor) {
  // At this rate session 1000's warped time rounds a few ulps past the
  // surge's end edge; the floor falls back to that edge.
  FleetFaultSpec spec;
  spec.surges.push_back({.t0_s = 4.7989999999999995,
                         .t1_s = 4.7989999999999995 + 15.028250729180353,
                         .rate_multiplier = 5.1942279721273543});
  const FleetFaultModel model(spec, kCells);
  const double rate = 12.068671662407787;
  const double edge = 4.7989999999999995 + 15.028250729180353;
  EXPECT_GT(model.arrival_time(1000, rate), edge);
  EXPECT_EQ(model.arrival_floor(1000, rate), edge);
  EXPECT_EQ(model.arrival_floor(999, rate), model.arrival_time(999, rate));
  EXPECT_GE(model.arrival_time(1001, rate), model.arrival_time(1000, rate));
}

}  // namespace
}  // namespace eacs::sim
