#pragma once
// The paper's QoE model (Section III-B, Fig. 2, Table III).
//
// Perceived quality of one video segment ("task") decomposes into:
//
//   Q(i) = q0(r_i)                       original quality (quiet room)
//        - I(v_i, r_i)                   vibration impairment
//        - lambda * |q0(r_i)-q0(r_im1)|  bitrate-switch impairment
//        - mu * T_rebuf(i)               rebuffering impairment
//
// clamped to the 5-level MOS range [1, 5].
//
// Functional forms (reconstruction of the OCR-lost Eqs. 1-4; see DESIGN.md):
//   q0(r)   = 5 - a * r^(-b)                      a=1.036, b=0.429 (Table III)
//   I(v, r) = kappa * v^alpha_v * r^beta_r        fit to the paper's four
//                                                 reported surface samples
//                                                 (0.049/0.184/0.174/0.549)
//
// Sanity anchors from the paper that tests assert:
//   * 1080p -> 480p in a quiet room loses ~12% QoE; on a vehicle only ~4%;
//   * I grows with both v and r; I ~ 0 at very low bitrate or vibration.

#include <cstddef>

namespace eacs::qoe {

/// Model coefficients (Table III reconstruction).
struct QoeModelParams {
  // Original-quality curve q0(r) = 5 - a * r^(-b).
  double a = 1.036;
  double b = 0.429;
  // Vibration impairment surface I(v, r) = kappa * v^alpha_v * r^beta_r.
  double kappa = 0.0165;
  double alpha_v = 1.124;
  double beta_r = 0.872;
  // Bitrate-switch impairment weight (per unit |q0 delta|).
  double switch_penalty = 0.5;
  // Rebuffering impairment weight (MOS points per stalled second).
  double rebuffer_penalty_per_s = 0.8;

  // MOS scale bounds.
  double mos_min = 1.0;
  double mos_max = 5.0;

  bool operator==(const QoeModelParams&) const = default;
};

/// Per-segment QoE inputs.
struct SegmentContext {
  double bitrate_mbps = 0.0;       ///< this segment's encode bitrate
  double vibration = 0.0;          ///< vibration level during playback (m/s^2)
  double prev_bitrate_mbps = 0.0;  ///< previous segment's bitrate; <= 0 means
                                   ///< "first segment" (no switch term)
  double rebuffer_s = 0.0;         ///< stall time attributed to this segment
};

/// The bitrate-only terms of one ladder rung: everything segment_qoe needs
/// from a bitrate, evaluated once (QoeModel::rung) and shared by every
/// segment priced at that bitrate.
struct RungQuality {
  double bitrate_mbps = 0.0;
  double original = 0.0;  ///< original_quality(bitrate_mbps)
  double pow_beta = 0.0;  ///< bitrate_mbps^beta_r; 0 when bitrate_mbps <= 0
};

/// Evaluates the QoE model.
class QoeModel {
 public:
  explicit QoeModel(QoeModelParams params = {});

  const QoeModelParams& params() const noexcept { return params_; }

  /// Original (quiet-room) quality of a bitrate, clamped to [mos_min, mos_max].
  double original_quality(double bitrate_mbps) const noexcept;

  /// Vibration impairment I(v, r); >= 0, and 0 when v <= 0 or r <= 0.
  double vibration_impairment(double vibration, double bitrate_mbps) const noexcept;

  /// Context-adjusted quality q0(r) - I(v, r), clamped to the MOS range.
  double perceived_quality(double bitrate_mbps, double vibration) const noexcept;

  /// The rung-constant terms of `bitrate_mbps`.
  RungQuality rung(double bitrate_mbps) const noexcept;

  /// The context-constant factor of I(v, r): kappa * v^alpha_v, 0 when v <= 0.
  double vibration_factor(double vibration) const noexcept;

  /// I(v, r) from its two factors: vibration_factor(v) * r^beta_r, 0 when
  /// either factor's input is out of range. Bitwise vibration_impairment(v, r)
  /// for every finite r.
  double vibration_impairment(const RungQuality& rung,
                              double vibration_factor) const noexcept;

  /// Full per-segment QoE including switch and rebuffer impairments.
  double segment_qoe(const SegmentContext& context) const noexcept;

  /// segment_qoe from precomputed terms: `prev` is the previous segment's
  /// rung (nullptr, or a rung with bitrate <= 0, means no switch term). The
  /// SegmentContext form goes through this one, so both are bit-identical.
  double segment_qoe(const RungQuality& rung, const RungQuality* prev,
                     double vibration_factor, double rebuffer_s) const noexcept;

  /// Bitrate-switch impairment term alone.
  double switch_impairment(double bitrate_mbps, double prev_bitrate_mbps) const noexcept;

 private:
  QoeModelParams params_;
};

}  // namespace eacs::qoe
