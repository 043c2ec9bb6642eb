#include "eacs/power/model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace eacs::power {

PowerModel::PowerModel(PowerModelParams params) : params_(params) {
  if (params_.e_ref_j_per_mb <= 0.0 || params_.p_base_w <= 0.0 ||
      params_.k_per_db < 0.0 || params_.c1_w_per_mbps < 0.0 ||
      params_.tail_energy_j < 0.0) {
    throw std::invalid_argument("PowerModel: invalid parameters");
  }
}

double PowerModel::energy_per_mb(double s_dbm) const noexcept {
  const double e =
      params_.e_ref_j_per_mb * std::exp(params_.k_per_db * (params_.s_ref_dbm - s_dbm));
  return std::clamp(e, params_.e_min_j_per_mb, params_.e_max_j_per_mb);
}

double PowerModel::download_energy(double size_mb, double s_dbm) const noexcept {
  if (size_mb <= 0.0) return 0.0;
  return size_mb * energy_per_mb(s_dbm);
}

double PowerModel::download_power(double s_dbm, double throughput_mbps) const noexcept {
  if (throughput_mbps <= 0.0) return 0.0;
  const double mb_per_s = throughput_mbps / 8.0;
  return energy_per_mb(s_dbm) * mb_per_s;
}

double PowerModel::playback_power(double bitrate_mbps) const noexcept {
  const double r = std::max(0.0, bitrate_mbps);
  return params_.p_base_w + params_.c0_w + params_.c1_w_per_mbps * r;
}

double PowerModel::task_energy(const TaskEnergyInput& input) const noexcept {
  // As download_energy: no exp for a task that downloads nothing.
  return task_energy(
      input, input.size_mb > 0.0 ? energy_per_mb(input.signal_dbm) : 0.0);
}

double PowerModel::task_energy(const TaskEnergyInput& input,
                               double energy_per_mb) const noexcept {
  double energy = input.size_mb > 0.0 ? input.size_mb * energy_per_mb : 0.0;
  if (input.play_s > 0.0) {
    energy += playback_power(input.bitrate_mbps) * input.play_s;
  }
  if (input.rebuffer_s > 0.0) {
    energy += pause_power() * input.rebuffer_s;
  }
  if (params_.tail_energy_j > 0.0 && input.size_mb > 0.0) {
    energy += params_.tail_energy_j * static_cast<double>(input.download_bursts);
  }
  return energy;
}

}  // namespace eacs::power
