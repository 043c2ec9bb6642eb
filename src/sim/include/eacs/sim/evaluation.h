#pragma once
// The paper's Section V evaluation, end to end: build the five Table V
// sessions, replay each with every algorithm (YouTube / FESTIVE / BBA / Ours
// / Optimal, optionally BOLA), account energy and QoE, and aggregate the
// comparisons behind Figs. 5-7.

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "eacs/core/decision_cache.h"
#include "eacs/core/objective.h"
#include "eacs/player/player.h"
#include "eacs/sim/execution.h"
#include "eacs/sim/metrics.h"
#include "eacs/trace/session.h"

namespace eacs::sim {

/// Evaluation configuration (paper defaults: 2 s segments, 14-rate ladder,
/// 30 s buffer threshold, alpha = 0.5).
struct EvaluationConfig {
  double alpha = 0.5;
  double segment_duration_s = 2.0;
  double vbr_amplitude = 0.0;        ///< >0 enables VBR segment sizes
  bool include_bola = false;         ///< extension baseline
  bool context_aware = true;         ///< false = energy-aware-only ablation
  player::PlayerConfig player;
  qoe::QoeModelParams qoe;
  power::PowerModelParams power;
  trace::SessionBuildOptions session_options;
  std::size_t online_startup_level = 3;  ///< "Ours" startup rung
  /// Optional decision memoization for "Ours": each session work item gets a
  /// fresh cache built from this config (per-instance — never shared across
  /// workers), keeping units pure in their index. The exact-key default
  /// leaves decisions bit-identical to uncached runs; a quantized config is
  /// the EXPERIMENTS.md quantization-error study.
  std::optional<core::DecisionCacheConfig> online_cache;
  /// Worker threads for the session fan-out; bit-identical at any value.
  ExecutionPolicy exec;
};

/// The Eq. 11 objective an evaluation plans with: the config's QoE and power
/// models, alpha, buffer threshold and context awareness.
core::Objective make_objective(const EvaluationConfig& config);

/// One complete evaluation outcome.
struct EvaluationResult {
  std::vector<SessionMetrics> rows;  ///< one row per (algorithm, session)

  /// Rows for one algorithm, in session order.
  std::vector<SessionMetrics> rows_for(const std::string& algorithm) const;
  /// The row for (algorithm, session). Throws std::out_of_range if absent.
  const SessionMetrics& row(const std::string& algorithm, int session_id) const;
  /// Distinct algorithm names, in first-appearance order.
  std::vector<std::string> algorithms() const;

  /// Mean across sessions of per-session whole-phone energy saving vs. the
  /// reference algorithm (paper: vs. YouTube; Fig. 5(b) left group).
  double mean_energy_saving(const std::string& algorithm,
                            const std::string& reference = "Youtube") const;
  /// Same on the extra-energy basis (Fig. 5(b) right group).
  double mean_extra_energy_saving(const std::string& algorithm,
                                  const std::string& reference = "Youtube") const;
  /// Mean QoE across sessions (Fig. 6(b)).
  double mean_qoe(const std::string& algorithm) const;
  /// Mean across sessions of per-session QoE degradation vs. reference
  /// (Fig. 6(c)).
  double mean_qoe_degradation(const std::string& algorithm,
                              const std::string& reference = "Youtube") const;
  /// Energy-saving / QoE-degradation ratio (Fig. 7).
  double saving_degradation_ratio(const std::string& algorithm,
                                  const std::string& reference = "Youtube") const;
};

/// Runs the evaluation.
class Evaluation {
 public:
  explicit Evaluation(EvaluationConfig config = {});

  const EvaluationConfig& config() const noexcept { return config_; }

  /// Full run over all Table V sessions (sessions are built once and shared
  /// across algorithms).
  EvaluationResult run() const;

  /// Run over caller-provided sessions (e.g. a single trace, or synthetic
  /// what-if sessions for ablations).
  EvaluationResult run(const std::vector<trace::SessionTraces>& sessions) const;

  /// The manifest used for a given session spec.
  media::VideoManifest manifest_for(const media::SessionSpec& spec) const;

 private:
  EvaluationConfig config_;
};

}  // namespace eacs::sim
