#include "eacs/sim/cell_network.h"

#include <cmath>
#include <stdexcept>

#include "eacs/sim/seed_mix.h"

namespace eacs::sim {
namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;


}  // namespace

CellNetwork::CellNetwork(CellNetworkConfig config) : config_(config) {
  if (config_.num_cells == 0) {
    throw std::invalid_argument("CellNetwork: num_cells must be > 0");
  }
  // A finite, ordered range keeps every signal_dbm off -0.0, so the fleet's
  // neutral fault offset is exact: signal + 0.0 == signal (DESIGN §14).
  if (!(std::isfinite(config_.signal_best_dbm) &&
        std::isfinite(config_.signal_worst_dbm) &&
        config_.signal_best_dbm >= config_.signal_worst_dbm)) {
    throw std::invalid_argument(
        "CellNetwork: signal range must be finite with best >= worst");
  }
}

double CellNetwork::capacity_mbps(std::size_t cell, double t_s) const noexcept {
  // Session id -1 keys the cell's own (session-independent) draws.
  const std::uint64_t h = seed_mix(config_.seed, cell, -1);
  const double scale =
      1.0 + config_.capacity_spread * (2.0 * seed_unit(h) - 1.0);
  const double phase = kTwoPi * seed_unit(seed_mix(config_.seed, cell, -2));
  const double sway =
      config_.capacity_sway *
      std::sin(kTwoPi * t_s / config_.capacity_period_s + phase);
  const double capacity = config_.mean_capacity_mbps * scale * (1.0 + sway);
  return capacity > 0.0 ? capacity : 0.0;
}

double CellNetwork::signal_dbm(int session_id, std::size_t cell,
                               double t_s) const noexcept {
  const std::uint64_t h = seed_mix(config_.seed, cell, session_id);
  const double base =
      config_.signal_worst_dbm +
      (config_.signal_best_dbm - config_.signal_worst_dbm) * seed_unit(h);
  // Pair-specific phase and a period jittered in [0.75, 1.25] of the mean so
  // neighbouring pairs don't swing in lockstep.
  const std::uint64_t h2 = seed_mix(h, cell + 1, session_id);
  const double phase = kTwoPi * seed_unit(h2);
  const double period =
      config_.signal_period_s * (0.75 + 0.5 * seed_unit(seed_mix(h2, cell, session_id)));
  return base + config_.signal_swing_db * std::sin(kTwoPi * t_s / period + phase);
}

std::size_t CellNetwork::best_cell(int session_id, double t_s) const noexcept {
  return best_cell_in(session_id, t_s, 0, config_.num_cells);
}

std::size_t CellNetwork::best_cell_in(int session_id, double t_s,
                                      std::size_t first_cell,
                                      std::size_t count) const noexcept {
  std::size_t best = first_cell;
  double best_dbm = signal_dbm(session_id, first_cell, t_s);
  for (std::size_t c = first_cell + 1; c < first_cell + count; ++c) {
    const double dbm = signal_dbm(session_id, c, t_s);
    if (dbm > best_dbm) {  // strict: lowest index wins ties
      best_dbm = dbm;
      best = c;
    }
  }
  return best;
}

}  // namespace eacs::sim
