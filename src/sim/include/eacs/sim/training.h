#pragma once
// Cross-entropy-method trainer for the learned ABR policy (extension).
//
// Trains abr::LinearPolicy weights against the trace-driven simulator.
// CEM is derivative-free and deterministic given a seed: sample a
// population of weight vectors from a diagonal Gaussian, replay every
// training episode with each candidate, refit the Gaussian on the elites,
// repeat. The reward mirrors the paper's Eq. 11 trade-off with the
// YouTube run of the same session as the normaliser:
//
//   reward = (1 - alpha) * QoE/QoE_youtube - alpha * E/E_youtube
//
// so a trained policy is directly comparable with the analytic algorithms.

#include <cstdint>
#include <vector>

#include "eacs/abr/learned.h"
#include "eacs/media/manifest.h"
#include "eacs/player/player.h"
#include "eacs/sensors/vibration.h"
#include "eacs/sim/execution.h"
#include "eacs/trace/session.h"

namespace eacs::sim {

/// One training episode: a session, its manifest, and reward normalisers.
struct TrainingEpisode {
  trace::SessionTraces session;
  media::VideoManifest manifest;
  double youtube_energy_j = 0.0;
  double youtube_qoe = 0.0;
};

/// CEM hyperparameters.
struct CemConfig {
  std::size_t population = 32;
  std::size_t elites = 8;
  std::size_t iterations = 12;
  double initial_sigma = 1.5;
  double min_sigma = 0.05;
  std::uint64_t seed = 0x7EA4ULL;
  /// Worker threads for the population rollouts; bit-identical at any value
  /// (candidates are sampled serially, scored in parallel, refit serially).
  ExecutionPolicy exec;
};

/// Outcome of a training run.
struct TrainingResult {
  std::vector<double> weights;         ///< final elite mean
  std::vector<double> reward_history;  ///< best population reward per iteration
  double final_reward = 0.0;
};

/// Trains abr::LinearPolicy weights.
class CemTrainer {
 public:
  /// `alpha` weights energy vs. QoE in the reward (the paper uses 0.5).
  explicit CemTrainer(std::vector<TrainingEpisode> episodes,
                      player::PlayerConfig player_config = {}, double alpha = 0.5);

  /// Not copyable: tracks_ point into this trainer's own episodes.
  CemTrainer(const CemTrainer&) = delete;
  CemTrainer& operator=(const CemTrainer&) = delete;
  CemTrainer(CemTrainer&&) = default;
  CemTrainer& operator=(CemTrainer&&) = default;

  /// Builds episodes from sessions: constructs the manifests and runs the
  /// YouTube baseline once per session for the reward normalisers.
  static std::vector<TrainingEpisode> make_episodes(
      std::vector<trace::SessionTraces> sessions, double segment_duration_s = 2.0,
      const player::PlayerConfig& player_config = {});

  /// Mean reward of a weight vector across the training episodes.
  double evaluate(const std::vector<double>& weights) const;

  /// Runs CEM; deterministic in config.seed.
  TrainingResult train(const CemConfig& config = {}) const;

 private:
  std::vector<TrainingEpisode> episodes_;
  /// Each episode's vibration series under player_config_.vibration, built
  /// once and shared by every candidate's replay of that episode.
  std::vector<sensors::VibrationTrack> tracks_;
  player::PlayerConfig player_config_;
  double alpha_;
};

}  // namespace eacs::sim
