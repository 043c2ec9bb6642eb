#pragma once
// Multi-source CDN delivery: per-source server faults, circuit breakers and
// health-scored source selection.
//
// net::FaultInjector models the *link* (the bearer between the device and
// the network); this layer models the *server side* — the CDN edges and
// origins that actually answer segment requests. A session sees N
// SegmentSources (one per manifest BaseURL); each source has its own
// capacity scale, base RTT and a CdnFaultSpec describing four server fault
// families, all deterministic in (spec, seed, source id):
//
//  * origin outages — the source serves nothing over an interval; scripted
//    windows plus seeded-random windows (Poisson arrivals, exponential
//    durations) merged into one schedule and applied to the source's
//    effective trace as zero-width step breakpoints (exactly the link-outage
//    mechanics, but scoped to one source — the other sources stay up);
//  * HTTP error episodes — an attempt dies almost immediately (4xx/5xx after
//    one RTT, headers only, no payload bytes); a baseline per-attempt
//    probability plus seeded episode windows during which the error rate
//    spikes (a misconfigured edge, an overloaded origin);
//  * truncated / corrupted payloads — the connection closes after a fraction
//    of the bytes (truncated), or the full payload lands but fails its
//    checksum so every byte is waste (corrupted);
//  * slow-start degradation — the attempt crawls at a fraction of the
//    source's capacity (an overloaded server that never ramps up).
//
// The default-constructed CdnFaultSpec injects nothing, and a SegmentSource
// with scale 1, RTT 0 and a default spec is a *certified no-op*: its
// effective trace is the session trace itself (no copy-through arithmetic),
// so the player's single-source path is bit-identical to the plain
// SegmentDownloader path.
//
// CircuitBreaker and SourceSelector are the client-side failover machinery:
// a deterministic per-source breaker (closed → open → half-open on a
// failure-rate window) and a selector that scores sources by breaker health
// and EWMA throughput. The player engine (player::CdnLinkModel +
// SessionEngine) drives them and implements hedged requests on top.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "eacs/net/downloader.h"
#include "eacs/net/fault_injector.h"
#include "eacs/trace/time_series.h"

namespace eacs::net {

/// Server-side fault families for one CDN source. The default-constructed
/// spec injects nothing: a source with a default spec never perturbs a run.
struct CdnFaultSpec {
  /// Scripted origin outages (a known maintenance window); merged with the
  /// seeded-random ones into one schedule.
  std::vector<OutageWindow> outages;

  /// Seeded-random origin outages: Poisson arrivals at this rate...
  double outage_rate_per_min = 0.0;
  /// ...with exponentially distributed durations of this mean.
  double outage_mean_s = 8.0;

  /// Baseline probability that an attempt draws an HTTP 4xx/5xx: the request
  /// dies after one RTT with zero payload bytes moved.
  double error_prob = 0.0;

  /// Seeded error *episodes*: Poisson windows at this rate during which the
  /// per-attempt error probability jumps to `episode_error_prob` (an
  /// overloaded origin answering 503 for a stretch).
  double error_rate_per_min = 0.0;
  double error_episode_mean_s = 10.0;
  double episode_error_prob = 0.9;

  /// Probability the connection closes after a fraction of the payload.
  double truncate_prob = 0.0;

  /// Probability the full payload lands but fails its checksum — every byte
  /// is wasted and the attempt counts as failed at its completion time.
  double corrupt_prob = 0.0;

  /// Probability the attempt crawls at `slow_scale` of the source's capacity
  /// (a server stuck in slow start / an overloaded edge).
  double slow_start_prob = 0.0;
  double slow_scale = 0.25;

  /// Seed for the outage/episode schedules and all per-attempt draws.
  std::uint64_t seed = 0xCD4F'417CULL;

  /// True if any fault family is switched on.
  bool enabled() const noexcept {
    return !outages.empty() || outage_rate_per_min > 0.0 || error_prob > 0.0 ||
           error_rate_per_min > 0.0 || truncate_prob > 0.0 ||
           corrupt_prob > 0.0 || slow_start_prob > 0.0;
  }
};

/// Static description of one CDN source.
struct CdnSourceConfig {
  std::string name = "origin";
  /// Decorrelates per-attempt draws between sources sharing a spec seed.
  std::size_t id = 0;
  /// Capacity multiplier applied to the session throughput trace (an edge
  /// closer than the origin serves faster). Exactly 1.0 skips the
  /// multiplication entirely, keeping the trace bitwise intact.
  double throughput_scale = 1.0;
  /// Added to every attempt's completion (and to the HTTP-error death time).
  double base_rtt_s = 0.0;
  /// Server faults; the default spec is a certified no-op.
  CdnFaultSpec faults;
};

/// One CDN endpoint a session can fetch segments from. Everything is a pure
/// function of (trace, config, signal): identical inputs reproduce identical
/// outage/episode schedules and per-attempt outcomes bit-for-bit.
class SegmentSource {
 public:
  /// `throughput_mbps` is the session link trace the source's capacity is
  /// derived from; `signal_dbm` is optional (unowned, must outlive the
  /// source) and only recorded for symmetry with FaultInjector.
  SegmentSource(const trace::TimeSeries& throughput_mbps, CdnSourceConfig config,
                const trace::TimeSeries* signal_dbm = nullptr);

  const CdnSourceConfig& config() const noexcept { return config_; }
  const std::string& name() const noexcept { return config_.name; }
  std::size_t id() const noexcept { return config_.id; }

  /// True when the source cannot perturb a run: scale 1, RTT 0, default
  /// spec. The player's single-trivial-source path is bit-identical to the
  /// plain downloader path.
  bool trivial() const noexcept {
    return config_.throughput_scale == 1.0 && config_.base_rtt_s == 0.0 &&
           !config_.faults.enabled();
  }

  /// The downloader over the source's effective (scaled, outage-zeroed)
  /// trace. For a trivial source this is byte-identical to a downloader on
  /// the original session trace.
  const SegmentDownloader& downloader() const noexcept { return downloader_; }

  /// Merged origin-outage schedule, sorted, non-overlapping.
  const std::vector<OutageWindow>& outage_schedule() const noexcept {
    return outages_;
  }
  /// Seeded HTTP-error episode windows, sorted, non-overlapping.
  const std::vector<OutageWindow>& error_episodes() const noexcept {
    return episodes_;
  }

  /// True if `t_s` falls inside an origin outage [start, end).
  bool in_outage(double t_s) const noexcept;

  /// HTTP-error probability for an attempt starting at `t_s` (baseline, or
  /// the episode rate inside an episode window), clamped to [0, 0.95].
  double error_probability(double t_s) const noexcept;

  /// Simulates attempt `attempt` of `segment` started at `start_s`.
  /// Deterministic: draws depend only on (spec seed, source id, segment,
  /// attempt), so hedged duplicates on another source never perturb the
  /// primary's outcome.
  AttemptOutcome attempt(std::size_t segment, std::size_t attempt,
                         double start_s, double size_megabits) const;

  /// Held-open rescue transfer: always completes (origin outages still slow
  /// it via the effective trace); no per-attempt faults, no RTT surcharge.
  DownloadResult rescue(double start_s, double size_megabits) const;

  /// Megabits the source's effective capacity moves over [t0, t1] — what an
  /// aborted or losing hedged attempt wasted.
  double megabits_over(double t0, double t1) const;

 private:
  CdnSourceConfig config_;
  const trace::TimeSeries* signal_ = nullptr;
  std::vector<OutageWindow> outages_;
  std::vector<OutageWindow> episodes_;
  SegmentDownloader downloader_;
};

/// Circuit-breaker state (the canonical three-state machine).
enum class BreakerState {
  kClosed,    ///< requests flow; failures are counted
  kOpen,      ///< requests blocked until the cooldown elapses
  kHalfOpen,  ///< probe requests allowed; success closes, failure re-opens
};

/// Stable lower-case identifier (timeline / study output).
const char* to_string(BreakerState state) noexcept;

/// Breaker tuning. Defaults trip after half of a small recent window fails.
struct CircuitBreakerConfig {
  std::size_t window = 8;          ///< sliding window of recent outcomes
  std::size_t min_samples = 4;     ///< no tripping before this many outcomes
  double failure_threshold = 0.5;  ///< open when failure fraction >= this
  double open_cooldown_s = 8.0;    ///< wall time open before half-open probes
  std::size_t half_open_successes = 1;  ///< probe successes needed to close
};

/// Deterministic per-source circuit breaker: closed → open on a failure-rate
/// window, open → half-open after a wall-clock cooldown, half-open → closed
/// on enough probe successes (or straight back to open on a probe failure).
/// No randomness anywhere: state is a pure function of the observation
/// sequence, so breaker-guarded runs stay bit-reproducible.
class CircuitBreaker {
 public:
  explicit CircuitBreaker(CircuitBreakerConfig config = {});

  const CircuitBreakerConfig& config() const noexcept { return config_; }
  BreakerState state() const noexcept { return state_; }

  /// Whether a request may be sent at `now_s`. An open breaker whose
  /// cooldown has elapsed transitions to half-open here (and allows).
  bool allow(double now_s);

  void record_success(double now_s);
  void record_failure(double now_s);

  /// Failure fraction over the current window (0 when empty).
  double failure_rate() const noexcept;
  /// Count of state changes so far (event plumbing / tests).
  std::size_t transitions() const noexcept { return transitions_; }

 private:
  void set_state(BreakerState next) noexcept;

  CircuitBreakerConfig config_;
  BreakerState state_ = BreakerState::kClosed;
  std::vector<bool> window_;   ///< ring of recent outcomes; true = failure
  std::size_t cursor_ = 0;
  std::size_t filled_ = 0;
  double opened_at_s_ = 0.0;
  std::size_t probe_successes_ = 0;
  std::size_t transitions_ = 0;
};

/// Selector tuning: EWMA smoothing for the throughput score plus the breaker
/// applied to every source.
struct SourceSelectorConfig {
  double ewma_alpha = 0.3;  ///< weight of the newest throughput observation
  CircuitBreakerConfig breaker;
};

/// Scores sources by breaker health and EWMA throughput and picks the
/// primary (and optionally a hedge backup) for each attempt. Per-run state:
/// the engine constructs one selector per session run. Deterministic — the
/// pick sequence is a pure function of the observation sequence.
class SourceSelector {
 public:
  /// `sources` is unowned and must outlive the selector; it must be
  /// non-empty. Scores start at each source's nominal capacity scale.
  SourceSelector(std::span<const SegmentSource> sources,
                 SourceSelectorConfig config = {});

  std::size_t num_sources() const noexcept { return scores_.size(); }

  /// Best allowed source (breaker permitting) by score, ties to the lowest
  /// index. If every breaker blocks, falls back to the best score overall so
  /// a session always makes progress.
  std::size_t pick_primary(double now_s);

  /// Best allowed source other than `primary`, or nullopt if none.
  std::optional<std::size_t> pick_backup(double now_s, std::size_t primary);

  /// Feeds one attempt outcome into the breaker and the EWMA score.
  /// `mbps` is the observed throughput (ignored for failures).
  void record(std::size_t source, bool success, double mbps, double now_s);

  const CircuitBreaker& breaker(std::size_t source) const {
    return breakers_[source];
  }
  double score(std::size_t source) const { return scores_[source]; }

 private:
  std::span<const SegmentSource> sources_;
  SourceSelectorConfig config_;
  std::vector<CircuitBreaker> breakers_;
  std::vector<double> scores_;
};

}  // namespace eacs::net
