#include "eacs/qoe/model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace eacs::qoe {

QoeModel::QoeModel(QoeModelParams params) : params_(params) {
  if (params_.mos_min >= params_.mos_max) {
    throw std::invalid_argument("QoeModel: mos_min must be < mos_max");
  }
  if (params_.a < 0.0 || params_.kappa < 0.0 || params_.switch_penalty < 0.0 ||
      params_.rebuffer_penalty_per_s < 0.0) {
    throw std::invalid_argument("QoeModel: negative coefficient");
  }
}

double QoeModel::original_quality(double bitrate_mbps) const noexcept {
  if (bitrate_mbps <= 0.0) return params_.mos_min;
  const double q = params_.mos_max - params_.a * std::pow(bitrate_mbps, -params_.b);
  return std::clamp(q, params_.mos_min, params_.mos_max);
}

double QoeModel::vibration_impairment(double vibration,
                                      double bitrate_mbps) const noexcept {
  if (vibration <= 0.0 || bitrate_mbps <= 0.0) return 0.0;
  return params_.kappa * std::pow(vibration, params_.alpha_v) *
         std::pow(bitrate_mbps, params_.beta_r);
}

double QoeModel::perceived_quality(double bitrate_mbps, double vibration) const noexcept {
  const double q =
      original_quality(bitrate_mbps) - vibration_impairment(vibration, bitrate_mbps);
  return std::clamp(q, params_.mos_min, params_.mos_max);
}

double QoeModel::switch_impairment(double bitrate_mbps,
                                   double prev_bitrate_mbps) const noexcept {
  if (prev_bitrate_mbps <= 0.0) return 0.0;
  return params_.switch_penalty *
         std::fabs(original_quality(bitrate_mbps) - original_quality(prev_bitrate_mbps));
}

RungQuality QoeModel::rung(double bitrate_mbps) const noexcept {
  return {bitrate_mbps, original_quality(bitrate_mbps),
          bitrate_mbps <= 0.0 ? 0.0 : std::pow(bitrate_mbps, params_.beta_r)};
}

double QoeModel::vibration_factor(double vibration) const noexcept {
  if (vibration <= 0.0) return 0.0;
  return params_.kappa * std::pow(vibration, params_.alpha_v);
}

double QoeModel::vibration_impairment(const RungQuality& rung,
                                      double vibration_factor) const noexcept {
  // (kappa * v^alpha) * r^beta: vibration_impairment's left-to-right product.
  if (vibration_factor == 0.0 || rung.bitrate_mbps <= 0.0) return 0.0;
  return vibration_factor * rung.pow_beta;
}

double QoeModel::segment_qoe(const SegmentContext& context) const noexcept {
  const RungQuality prev = rung(context.prev_bitrate_mbps);
  return segment_qoe(rung(context.bitrate_mbps), &prev,
                     vibration_factor(context.vibration), context.rebuffer_s);
}

double QoeModel::segment_qoe(const RungQuality& rung, const RungQuality* prev,
                             double vibration_factor,
                             double rebuffer_s) const noexcept {
  double q = rung.original;
  q -= vibration_impairment(rung, vibration_factor);
  // switch_impairment, guarded on the previous bitrate only (as there).
  if (prev != nullptr && !(prev->bitrate_mbps <= 0.0)) {
    q -= params_.switch_penalty * std::fabs(rung.original - prev->original);
  }
  q -= params_.rebuffer_penalty_per_s * std::max(0.0, rebuffer_s);
  return std::clamp(q, params_.mos_min, params_.mos_max);
}

}  // namespace eacs::qoe
