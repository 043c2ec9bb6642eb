#pragma once
// Deterministic fault injection over a throughput trace.
//
// The plain SegmentDownloader models an idealised link: every transfer
// completes and nothing ever times out. Real mobile sessions — the paper's
// moving-vehicle scenarios in particular — hit tunnels (link outages),
// handover drops and HTTP-level failures, and they hit them *more often
// where the signal is weak*, which is exactly where the context-aware
// algorithm claims its savings. This layer wraps the downloader with three
// fault families, all deterministic in (FaultSpec, seed):
//
//  * link outages — throughput forced to zero over an interval; scripted
//    windows (a known tunnel) plus seeded-random windows (Poisson arrivals,
//    exponential durations) are merged into one outage schedule and applied
//    to the trace as zero-width step breakpoints;
//  * per-request failures — an attempt dies after a fraction of its bytes
//    (connection reset); the probability optionally grows with every dB the
//    signal sits below a threshold, tying failures to the paper's Table VI
//    signal model;
//  * stuck transfers (slow loris) — an attempt crawls at a token rate
//    regardless of link capacity until the player's deadline aborts it.
//
// The player-side retry machinery that survives all of this lives in
// eacs::player (PlayerSimulator::run overload taking a FaultInjector).

#include <cstdint>
#include <vector>

#include "eacs/net/downloader.h"
#include "eacs/trace/time_series.h"

namespace eacs::net {

/// One link outage: effective throughput is zero over [start_s, end_s).
struct OutageWindow {
  double start_s = 0.0;
  double end_s = 0.0;

  double duration_s() const noexcept { return end_s - start_s; }
};

/// Full description of the faults to inject. The default-constructed spec
/// injects nothing: FaultInjector{trace, FaultSpec{}} is a strict no-op
/// pass-through around SegmentDownloader.
struct FaultSpec {
  /// Scripted outages (tunnels, known dead zones); merged with random ones.
  std::vector<OutageWindow> outages;

  /// Seeded-random outages: Poisson arrivals at this rate over the trace...
  double outage_rate_per_min = 0.0;
  /// ...with exponentially distributed durations of this mean.
  double outage_mean_s = 6.0;

  /// Baseline probability that any single download attempt fails mid-flight.
  double failure_prob = 0.0;

  /// Signal coupling: adds this much failure probability per dB the signal
  /// sits below `signal_threshold_dbm` at the attempt's start (weak LTE
  /// fails more). Requires a signal trace to be passed to the injector.
  double signal_failure_per_db = 0.0;
  double signal_threshold_dbm = -100.0;

  /// Probability an attempt is a stuck transfer crawling at `stall_rate_mbps`
  /// regardless of link capacity (a slow-loris server / half-dead bearer).
  double stall_prob = 0.0;
  double stall_rate_mbps = 0.05;

  /// Seed for the random outage schedule and all per-attempt draws.
  std::uint64_t seed = 0xFA01'7EC7ULL;

  /// True if any fault family is switched on.
  bool enabled() const noexcept {
    return !outages.empty() || outage_rate_per_min > 0.0 || failure_prob > 0.0 ||
           signal_failure_per_db > 0.0 || stall_prob > 0.0;
  }
};

/// Which fault shaped one attempt (a label for tests and study output; the
/// player engine reads only AttemptOutcome's flags).
enum class CdnAttemptClass {
  kOk,         ///< clean transfer against the effective trace
  kHttpError,  ///< 4xx/5xx after one RTT; zero payload bytes
  kTruncated,  ///< connection closed after `fail_fraction` of the bytes
  kCorrupted,  ///< full payload, failed checksum; every byte wasted
  kSlow,       ///< crawls at a token rate (slow loris / slow start)
};

/// Stable lower-case identifier (timeline / study output).
const char* to_string(CdnAttemptClass kind) noexcept;

/// What one download attempt experiences — the one outcome type for both
/// fault layers: FaultInjector (the link) and SegmentSource (a CDN server).
struct AttemptOutcome {
  /// Completion against the effective (outage-zeroed) trace, plus any
  /// server RTT. For a failed attempt it is the hypothetical full
  /// completion, for a crawling one the crawl completion.
  DownloadResult result;
  bool failed = false;    ///< dies at `fail_at_s` after `fail_fraction` bytes
  /// Moves bytes at result.mean_throughput_mbps whatever the link capacity:
  /// FaultInjector's stuck transfer (spec.stall_rate_mbps) or a CDN source
  /// stuck in slow start. May be set together with `failed`.
  bool crawling = false;
  double fail_at_s = 0.0;
  double fail_fraction = 0.0;
  CdnAttemptClass kind = CdnAttemptClass::kOk;
};

/// Scripted windows validated plus seeded-random windows (Poisson arrivals
/// at `rate_per_min`, exponential durations of mean `mean_s`) drawn over the
/// trace span, merged into one sorted, non-overlapping schedule. Shared by
/// FaultInjector (link outages) and SegmentSource (origin outages and HTTP
/// error episodes). Throws std::invalid_argument on a scripted window that
/// ends before it starts.
std::vector<OutageWindow> build_outage_schedule(
    const std::vector<OutageWindow>& scripted, double rate_per_min,
    double mean_s, std::uint64_t seed, const trace::TimeSeries& trace);

/// The original trace with every window forced to zero. Window edges become
/// zero-width step breakpoints (duplicate timestamps); an empty window list
/// returns the original unchanged (bitwise — the no-op contract).
trace::TimeSeries outage_zeroed_trace(const trace::TimeSeries& original,
                                      const std::vector<OutageWindow>& windows);

/// Wraps a throughput trace with a deterministic fault model. Everything is
/// a pure function of (trace, spec, signal): the same inputs reproduce the
/// same outage schedule and the same per-attempt outcomes bit-for-bit,
/// independent of call order.
class FaultInjector {
 public:
  /// `signal_dbm` (optional, unowned, must outlive the injector) enables the
  /// signal-correlated failure term.
  FaultInjector(const trace::TimeSeries& throughput_mbps, FaultSpec spec,
                const trace::TimeSeries* signal_dbm = nullptr);

  /// False for a default-constructed spec: the injector passes through.
  bool active() const noexcept { return spec_.enabled(); }
  const FaultSpec& spec() const noexcept { return spec_; }

  /// The downloader over the effective (outage-zeroed) throughput trace.
  /// With no outages this is byte-identical to a downloader on the original.
  const SegmentDownloader& downloader() const noexcept { return downloader_; }

  /// Merged outage schedule (scripted + random), sorted, non-overlapping.
  const std::vector<OutageWindow>& outage_schedule() const noexcept {
    return schedule_;
  }

  /// True if `t_s` falls inside an outage window [start, end).
  bool in_outage(double t_s) const noexcept;

  /// Failure probability for an attempt starting at `t_s` (baseline plus the
  /// signal-coupled term), clamped to [0, 0.95] so retries can make progress.
  double failure_probability(double t_s) const;

  /// Simulates one attempt for (`segment_index`, `attempt`). Deterministic:
  /// the draws depend only on (spec.seed, segment_index, attempt), so a
  /// retry of segment 7 never perturbs what segment 8 experiences.
  AttemptOutcome attempt(std::size_t segment_index, std::size_t attempt,
                         double start_s, double size_megabits) const;

  /// Megabits the effective link moves over [t0, t1] — what an aborted
  /// attempt wasted.
  double megabits_over(double t0, double t1) const;

 private:
  FaultSpec spec_;
  const trace::TimeSeries* signal_ = nullptr;
  std::vector<OutageWindow> schedule_;
  SegmentDownloader downloader_;
};

}  // namespace eacs::net
