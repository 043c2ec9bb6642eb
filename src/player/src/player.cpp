#include "eacs/player/player.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "eacs/player/session_engine.h"
#include "eacs/util/rng.h"

namespace eacs::player {

double PlaybackResult::total_downloaded_mb() const noexcept {
  double total = 0.0;
  for (const auto& task : tasks) total += task.size_mb;
  return total;
}

double PlaybackResult::mean_bitrate_mbps() const noexcept {
  double weighted = 0.0;
  double duration = 0.0;
  for (const auto& task : tasks) {
    weighted += task.bitrate_mbps * task.duration_s;
    duration += task.duration_s;
  }
  return duration > 0.0 ? weighted / duration : 0.0;
}

PlayerSimulator::PlayerSimulator(media::VideoManifest manifest, PlayerConfig config)
    : manifest_(std::move(manifest)), config_(config) {
  if (config_.buffer_threshold_s <= 0.0 || config_.startup_buffer_s <= 0.0) {
    throw std::invalid_argument("PlayerSimulator: buffer parameters must be > 0");
  }
  if (config_.startup_buffer_s > config_.buffer_threshold_s) {
    throw std::invalid_argument(
        "PlayerSimulator: startup buffer cannot exceed the buffer threshold");
  }
}

PlaybackResult PlayerSimulator::run_on(
    const LinkModel& link, AbrPolicy& policy, const trace::SessionTraces& session,
    const sensors::SensorFaultInjector* sensor_faults, SessionObserver* observer,
    const sensors::VibrationTrack* vibration) const {
  SessionClient client;
  client.manifest = &manifest_;
  client.policy = &policy;
  client.context = &session;
  client.sensor_faults = sensor_faults;
  client.vibration_track = vibration;
  const SessionEngine engine(SessionEngineConfig{.player = config_});
  auto results = engine.run(std::span<const SessionClient>(&client, 1), link,
                            observer);
  return std::move(results.front());
}

PlaybackResult PlayerSimulator::run(AbrPolicy& policy,
                                    const trace::SessionTraces& session,
                                    SessionObserver* observer,
                                    const sensors::VibrationTrack* vibration) const {
  return run_on(SoloLinkModel(session.throughput_mbps), policy, session,
                nullptr, observer, vibration);
}

double retry_backoff_s(const ResilienceConfig& config, std::uint64_t fault_seed,
                       std::size_t segment_index, std::size_t attempt) {
  const double base = std::min(
      config.backoff_base_s *
          std::pow(config.backoff_factor, static_cast<double>(attempt)),
      config.backoff_max_s);
  // Deterministic jitter: a pure function of (seed, segment, attempt), so
  // identical (config, seed) reproduce identical schedules bit-for-bit.
  eacs::Rng rng(fault_seed ^
                (0xB0FF'B0FFULL *
                 (static_cast<std::uint64_t>(segment_index) * 131 + attempt + 1)));
  return base * (1.0 + config.backoff_jitter * rng.uniform());
}

PlaybackResult PlayerSimulator::run(AbrPolicy& policy,
                                    const trace::SessionTraces& session,
                                    const net::FaultInjector& faults,
                                    SessionObserver* observer,
                                    const sensors::VibrationTrack* vibration) const {
  // A disabled spec is a strict no-op pass-through: delegate to the plain
  // solo link so results stay bit-identical to the fault-free overload.
  if (!faults.active()) return run(policy, session, observer, vibration);
  return run_on(FaultLinkModel(faults), policy, session, nullptr, observer,
                vibration);
}

PlaybackResult PlayerSimulator::run(AbrPolicy& policy,
                                    const trace::SessionTraces& session,
                                    const sensors::SensorFaultInjector& sensor_faults,
                                    SessionObserver* observer,
                                    const sensors::VibrationTrack* vibration) const {
  return run_on(SoloLinkModel(session.throughput_mbps), policy, session,
                &sensor_faults, observer, vibration);
}

PlaybackResult PlayerSimulator::run(AbrPolicy& policy,
                                    const trace::SessionTraces& session,
                                    std::span<const net::SegmentSource> sources,
                                    SessionObserver* observer,
                                    const sensors::VibrationTrack* vibration) const {
  const CdnLinkModel link(sources);
  // A single trivial source is a strict no-op pass-through: delegate to the
  // plain solo link so results stay bit-identical to the fault-free overload.
  if (!link.unreliable()) return run(policy, session, observer, vibration);
  return run_on(link, policy, session, nullptr, observer, vibration);
}

}  // namespace eacs::player
