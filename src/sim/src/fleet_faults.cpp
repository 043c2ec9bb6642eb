#include "eacs/sim/fleet_faults.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "eacs/sim/seed_mix.h"
#include "eacs/util/rng.h"

namespace eacs::sim {
namespace {

// seed_mix lanes for the seeded episode draws (XORed into the base seed so
// the per-kind streams are independent; see fleet.cpp's lane convention).
constexpr std::uint64_t kOutageLane = 0x00FA'0001;
constexpr std::uint64_t kBrownoutLane = 0x00FA'0002;
constexpr std::uint64_t kCollapseLane = 0x00FA'0003;
constexpr std::uint64_t kSurgeLane = 0x00FA'0004;

bool finite_interval(double t0, double t1) noexcept {
  return std::isfinite(t0) && std::isfinite(t1) && t1 > t0;
}

void check_interval(double t0, double t1, const char* what) {
  if (!finite_interval(t0, t1)) {
    throw std::invalid_argument(std::string("FleetFaultModel: ") + what +
                                " interval must be finite with t1 > t0");
  }
}

void check_cells(std::size_t first, std::size_t count, std::size_t total,
                 const char* what) {
  if (count == 0 || first >= total || total - first < count) {
    throw std::invalid_argument(std::string("FleetFaultModel: ") + what +
                                " cell range outside the network");
  }
}

bool active(double t0, double t1, double t_s) noexcept {
  return t_s >= t0 && t_s < t1;
}

/// Per-(domain, epoch) Bernoulli: pure in (seed, lane, domain, epoch).
/// seed_mix alone has no avalanche (it is XOR of multiplies), which is fine
/// when the result seeds an Rng but not for a direct Bernoulli threshold:
/// lane bits below position 11 would be wiped by seed_unit's mantissa shift,
/// and a p = 0.5 draw would depend on bit 63 alone. avalanche diffuses every
/// input bit across the word first.
bool episode_fires(std::uint64_t seed, std::uint64_t lane, std::size_t domain,
                   std::size_t epoch, double prob) noexcept {
  if (!(prob > 0.0)) return false;
  return seed_unit(avalanche(seed_mix(seed ^ lane, domain,
                                      static_cast<int>(epoch)))) < prob;
}

}  // namespace

FleetFaultModel::FleetFaultModel(const FleetFaultSpec& spec,
                                 std::size_t num_cells) {
  if (num_cells == 0) {
    throw std::invalid_argument("FleetFaultModel: zero cells");
  }

  for (const CellOutage& o : spec.outages) {
    check_interval(o.t0_s, o.t1_s, "outage");
    check_cells(o.first_cell, o.num_cells, num_cells, "outage");
    outages_.push_back(o);
  }
  for (const CapacityBrownout& b : spec.brownouts) {
    check_interval(b.t0_s, b.t1_s, "brownout");
    check_cells(b.first_cell, b.num_cells, num_cells, "brownout");
    if (!(b.capacity_factor > 0.0 && b.capacity_factor <= 1.0)) {
      throw std::invalid_argument(
          "FleetFaultModel: brownout factor must be in (0, 1]");
    }
    brownouts_.push_back(b);
  }
  for (const SignalCollapse& c : spec.collapses) {
    check_interval(c.t0_s, c.t1_s, "collapse");
    check_cells(c.first_cell, c.num_cells, num_cells, "collapse");
    if (!(std::isfinite(c.offset_db) && c.offset_db <= 0.0)) {
      throw std::invalid_argument(
          "FleetFaultModel: collapse offset must be finite and <= 0 dB");
    }
    collapses_.push_back(c);
  }
  std::vector<ArrivalSurge> surges;
  for (const ArrivalSurge& s : spec.surges) {
    check_interval(s.t0_s, s.t1_s, "surge");
    if (!(std::isfinite(s.rate_multiplier) && s.rate_multiplier > 0.0)) {
      throw std::invalid_argument(
          "FleetFaultModel: surge multiplier must be finite and > 0");
    }
    surges.push_back(s);
  }

  // Seeded episode generation: one Bernoulli per (domain, epoch) per kind,
  // materialized in (epoch, domain) order so the episode lists are
  // deterministic. Stateless draws — every run with this spec generates the
  // identical episode set.
  const SeededFaultConfig& gen = spec.seeded;
  if (gen.enabled()) {
    if (!(std::isfinite(gen.horizon_s) && gen.horizon_s > 0.0) ||
        !(std::isfinite(gen.epoch_s) && gen.epoch_s > 0.0)) {
      throw std::invalid_argument(
          "FleetFaultModel: seeded horizon and epoch must be finite and > 0");
    }
    if (gen.domain_cells == 0) {
      throw std::invalid_argument(
          "FleetFaultModel: seeded domain_cells must be >= 1");
    }
    for (const double p : {gen.outage_prob, gen.brownout_prob,
                           gen.collapse_prob, gen.surge_prob}) {
      if (!(p >= 0.0 && p <= 1.0)) {
        throw std::invalid_argument(
            "FleetFaultModel: seeded probabilities must be in [0, 1]");
      }
    }
    for (const double d :
         {gen.outage_duration_s, gen.brownout_duration_s,
          gen.collapse_duration_s, gen.surge_duration_s}) {
      if (!(std::isfinite(d) && d > 0.0)) {
        throw std::invalid_argument(
            "FleetFaultModel: seeded durations must be finite and > 0");
      }
    }
    if (!(gen.brownout_factor > 0.0 && gen.brownout_factor <= 1.0)) {
      throw std::invalid_argument(
          "FleetFaultModel: seeded brownout factor must be in (0, 1]");
    }
    if (!(std::isfinite(gen.collapse_db) && gen.collapse_db <= 0.0)) {
      throw std::invalid_argument(
          "FleetFaultModel: seeded collapse offset must be finite and <= 0");
    }
    if (!(std::isfinite(gen.surge_multiplier) && gen.surge_multiplier > 0.0)) {
      throw std::invalid_argument(
          "FleetFaultModel: seeded surge multiplier must be finite and > 0");
    }
    const auto num_epochs =
        static_cast<std::size_t>(std::ceil(gen.horizon_s / gen.epoch_s));
    const std::size_t num_domains =
        (num_cells + gen.domain_cells - 1) / gen.domain_cells;
    for (std::size_t epoch = 0; epoch < num_epochs; ++epoch) {
      const double t0 = static_cast<double>(epoch) * gen.epoch_s;
      for (std::size_t domain = 0; domain < num_domains; ++domain) {
        const std::size_t first = domain * gen.domain_cells;
        const std::size_t count = std::min(gen.domain_cells, num_cells - first);
        if (episode_fires(gen.seed, kOutageLane, domain, epoch,
                          gen.outage_prob)) {
          outages_.push_back({t0, t0 + gen.outage_duration_s, first, count});
        }
        if (episode_fires(gen.seed, kBrownoutLane, domain, epoch,
                          gen.brownout_prob)) {
          brownouts_.push_back({t0, t0 + gen.brownout_duration_s, first, count,
                                gen.brownout_factor});
        }
        if (episode_fires(gen.seed, kCollapseLane, domain, epoch,
                          gen.collapse_prob)) {
          collapses_.push_back({t0, t0 + gen.collapse_duration_s, first, count,
                                gen.collapse_db});
        }
      }
      if (episode_fires(gen.seed, kSurgeLane, 0, epoch, gen.surge_prob)) {
        // Clamped to the epoch so seeded surges never overlap each other.
        surges.push_back({t0, t0 + std::min(gen.surge_duration_s, gen.epoch_s),
                          gen.surge_multiplier});
      }
    }
  }

  // Surge profile: sweep all interval edges and take the most severe
  // (largest) multiplier over the active set in each span. The trailing
  // segment is multiplier 1 out to infinity, so the warp is the identity
  // after the last surge ends.
  if (!surges.empty()) {
    std::vector<double> edges;
    edges.push_back(0.0);
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
      if (!profile_.empty() && profile_.back().rate_mult == mult) continue;
      profile_.push_back({t0, mult, 0.0});
    }
    for (std::size_t i = 1; i < profile_.size(); ++i) {
      profile_[i].cum_units =
          profile_[i - 1].cum_units +
          profile_[i - 1].rate_mult * (profile_[i].t0_s - profile_[i - 1].t0_s);
    }
    if (profile_.size() == 1 && profile_[0].rate_mult == 1.0) {
      profile_.clear();  // all surges were neutral: identity warp
    }
  }

  build_span_index(num_cells);
}

void FleetFaultModel::build_span_index(std::size_t num_cells) {
  // No cell episode: leave the table empty, so every cell_state query returns
  // the neutral state at its first compare — what a clean fleet run asks.
  if (outages_.empty() && brownouts_.empty() && collapses_.empty()) return;
  // One cell-episode per (episode, covered cell), as the state change it
  // applies. Neutral components combine as no-ops: min(factor, 1.0) and
  // min(offset, 0.0) return their first argument for every valid state.
  struct CellEpisode {
    double t0_s;
    double t1_s;
    CellFaultState effect;
  };
  // Per-cell episode lists: each episode visits only the cells it covers.
  std::vector<std::vector<CellEpisode>> per_cell(num_cells);
  const auto add = [&](std::size_t first, std::size_t count,
                       const CellEpisode& episode) {
    for (std::size_t c = first; c < first + count; ++c) {
      per_cell[c].push_back(episode);
    }
  };
  for (const CellOutage& o : outages_) {
    add(o.first_cell, o.num_cells, {o.t0_s, o.t1_s, {true}});
  }
  for (const CapacityBrownout& b : brownouts_) {
    add(b.first_cell, b.num_cells,
        {b.t0_s, b.t1_s, {false, b.capacity_factor}});
  }
  for (const SignalCollapse& c : collapses_) {
    add(c.first_cell, c.num_cells, {c.t0_s, c.t1_s, {false, 1.0, c.offset_db}});
  }

  // Sweep each cell's edges in time order, keeping the episodes active at
  // the current edge (t0 <= edge < t1). The combined state at an edge holds
  // until the next edge, so an entry is written only where the state
  // changes — starting from the healthy state before the first edge. Min
  // and or are exact and order-free, so every entry is bit-equal to the
  // combination over the episodes active at its edge.
  span_begin_.assign(num_cells + 1, 0);
  std::vector<double> edges;
  std::vector<CellEpisode> live;
  for (std::size_t c = 0; c < num_cells; ++c) {
    std::vector<CellEpisode>& episodes = per_cell[c];
    std::sort(episodes.begin(), episodes.end(),
              [](const CellEpisode& a, const CellEpisode& b) {
                return a.t0_s < b.t0_s;
              });
    edges.clear();
    for (const CellEpisode& e : episodes) {
      edges.push_back(e.t0_s);
      edges.push_back(e.t1_s);
    }
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

    live.clear();
    auto next = episodes.begin();
    CellFaultState previous;
    for (const double edge : edges) {
      for (; next != episodes.end() && next->t0_s <= edge; ++next) {
        live.push_back(*next);
      }
      std::erase_if(live, [edge](const CellEpisode& e) { return e.t1_s <= edge; });
      CellFaultState state;
      for (const CellEpisode& e : live) {
        state.dead = state.dead || e.effect.dead;
        state.capacity_factor =
            std::min(state.capacity_factor, e.effect.capacity_factor);
        state.signal_offset_db =
            std::min(state.signal_offset_db, e.effect.signal_offset_db);
      }
      if (state == previous) continue;
      span_t_.push_back(edge);
      span_state_.push_back(state);
      previous = state;
    }
    span_begin_[c + 1] = span_t_.size();
  }
}

CellFaultState FleetFaultModel::cell_state(std::size_t cell,
                                           double t_s) const noexcept {
  if (cell + 1 >= span_begin_.size()) return {};
  const auto first =
      span_t_.begin() + static_cast<std::ptrdiff_t>(span_begin_[cell]);
  const auto last =
      span_t_.begin() + static_cast<std::ptrdiff_t>(span_begin_[cell + 1]);
  // The last edge at or before t_s. A NaN t_s lands past every edge, where
  // no episode is active: the healthy state, as for any t_s outside.
  const auto it = std::upper_bound(first, last, t_s);
  if (it == first) return {};
  return span_state_[static_cast<std::size_t>(it - span_t_.begin()) - 1];
}

double FleetFaultModel::arrival_time(std::size_t session,
                                     double base_rate_per_s) const noexcept {
  const double target = static_cast<double>(session) / base_rate_per_s;
  if (profile_.empty()) return target;
  // Invert the piecewise-linear integral inside the target's segment.
  const SurgeSegment& seg = profile_[surge_segment(target)];
  return seg.t0_s + (target - seg.cum_units) / seg.rate_mult;
}

double FleetFaultModel::arrival_floor(std::size_t session,
                                      double base_rate_per_s) const noexcept {
  const double t = arrival_time(session, base_rate_per_s);
  if (profile_.empty()) return t;
  // A later session's target is no smaller. In this segment its time is
  // then no earlier than t (every step of the inversion is monotone); in a
  // later segment it is that segment's t0_s plus a non-negative term, so no
  // earlier than the next edge.
  const std::size_t i =
      surge_segment(static_cast<double>(session) / base_rate_per_s);
  return i + 1 < profile_.size() ? std::min(t, profile_[i + 1].t0_s) : t;
}

std::size_t FleetFaultModel::surge_segment(double target) const noexcept {
  // The last segment whose cumulative units do not exceed the target (the
  // first segment when none does). cum_units only grows along the profile.
  const auto it = std::upper_bound(
      profile_.begin(), profile_.end(), target,
      [](double units, const SurgeSegment& seg) { return units < seg.cum_units; });
  return it == profile_.begin()
             ? 0
             : static_cast<std::size_t>(it - profile_.begin()) - 1;
}

}  // namespace eacs::sim
