#pragma once
// The unified playback session engine.
//
// One event-driven core replaces the three playback loops the repo used to
// carry (fault-free PlayerSimulator::run, the fault-injected resilience
// overload, and MultiClientSimulator's stepped shared-link loop). The engine
// owns the single implementation of buffer drain / stall accounting, startup
// transitions, the buffer-threshold throttle and the per-segment retry
// machine; what varies between scenarios is factored into a LinkModel:
//
//  * SoloLinkModel    — trace-driven dedicated link; every attempt completes
//                       (the fault-free player semantics);
//  * FaultLinkModel   — wraps net::FaultInjector; attempts can fail, stall or
//                       time out, engaging ResilienceConfig's retry machine
//                       (deadlines, bounded retries, backoff, degradation,
//                       abandonment, rescue fetch) with the link as its one
//                       delivery leg;
//  * CdnLinkModel     — multi-source CDN delivery: N SegmentSources with
//                       per-source server faults; the same retry machine
//                       adds circuit breakers, health-scored failover and
//                       hedged requests (first successful finisher wins,
//                       the loser's bytes are priced as wasted energy);
//  * SharedLinkModel  — processor-sharing bottleneck: concurrent downloads
//                       split the capacity equally; integrated on a fixed
//                       step grid with sub-step completions resolved exactly.
//  * CellularLinkModel — many processor-shared bottlenecks (one per base
//                       station); clients attach per-cell and follow handoff
//                       routes, and the engine advances cells through a
//                       global (step, cell) event heap so finished or empty
//                       cells cost nothing. One cell == SharedLinkModel.
//
// Every state transition is surfaced to SessionObserver hooks as a typed
// SessionEvent; SessionTimeline is the bundled observer that records the full
// per-event log and serialises it as CSV or JSON (used by
// `trace_explorer --timeline` and the event-ordering tests).
//
// Determinism: the engine adds no randomness of its own — all draws live in
// net::FaultInjector / retry_backoff_s and are pure functions of their seeds,
// so engine runs inherit the repo-wide bit-reproducibility contract
// (DESIGN.md §6). Observers are strictly read-only: attaching one can never
// perturb a result.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "eacs/net/downloader.h"
#include "eacs/net/fault_injector.h"
#include "eacs/net/segment_source.h"
#include "eacs/player/abr_policy.h"
#include "eacs/player/player.h"
#include "eacs/sensors/sensor_faults.h"
#include "eacs/sensors/vibration.h"
#include "eacs/trace/session.h"
#include "eacs/trace/time_series.h"

namespace eacs::player {

/// Sentinel for SessionEvent fields that do not apply to an event.
inline constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);

/// Everything the engine can report. Analytic links (solo, fault, CDN) emit
/// request/complete/failure/drain events with exact timestamps; the stepped
/// shared link additionally emits per-step kDownloadProgress and timestamps
/// intra-step events at the step boundary.
enum class SessionEventType {
  kSessionStart,      ///< engine run begins (client = kNoIndex)
  kClientJoin,        ///< client becomes eligible to download
  kThrottleWait,      ///< buffer above threshold; value = idle seconds
  kRequestIssued,     ///< policy consulted, download starts; level is set
  kDownloadProgress,  ///< stepped links: value = megabits moved this step
  kDownloadComplete,  ///< segment landed; value = measured throughput (Mbps)
  kAttemptDeadline,   ///< attempt aborted at the deadline (fault links only)
  kAttemptFailure,    ///< attempt died mid-flight (fault links only)
  kAttemptAbandoned,  ///< mid-download abandonment (fault links only)
  kBackoffExpiry,     ///< retry backoff elapsed; value = waited seconds
  kBufferDrain,       ///< playback drained the buffer; value = seconds played
  kStall,             ///< buffer hit empty; value = stall seconds
  kStartup,           ///< playback began for this client
  kFaultTransition,   ///< outage boundary crossed; value = 1 enter, 0 leave
  kSourceFailover,    ///< CDN links: primary source switched; source = new
                      ///< primary, value = the previous source index
  kHedgeIssued,       ///< CDN links: duplicate fetch sent; source = backup
  kHedgeComplete,     ///< CDN links: hedged race resolved; source = winner,
                      ///< value = 0 primary won, 1 the hedge won
  kBreakerTransition, ///< CDN links: breaker changed state; source = which,
                      ///< value = new state (0 closed, 1 open, 2 half-open)
  kCellHandoff,       ///< cellular links: client moved cells at a step edge;
                      ///< source = new cell, value = the previous cell index
  kSessionEnd,        ///< engine run finished (client = kNoIndex)
};

/// Stable lower-case identifier (used in timeline CSV/JSON and tests).
const char* to_string(SessionEventType type) noexcept;

/// One engine event. Fields that do not apply hold kNoIndex / 0.0.
struct SessionEvent {
  SessionEventType type = SessionEventType::kSessionStart;
  double t_s = 0.0;                 ///< wall-clock time of the event
  std::size_t client = kNoIndex;    ///< client index within the run
  std::size_t segment = kNoIndex;   ///< segment the event concerns
  std::size_t attempt = kNoIndex;   ///< attempt number (fault links)
  std::size_t level = kNoIndex;     ///< ladder level in play
  std::size_t source = kNoIndex;    ///< CDN source index (CDN links only)
  double buffer_s = 0.0;            ///< client buffer after the event
  double value = 0.0;               ///< type-specific payload (see enum docs)
};

/// Read-only hook invoked on every engine event, in emission order.
/// Observers must not mutate engine inputs; attaching one never changes a
/// PlaybackResult.
class SessionObserver {
 public:
  virtual ~SessionObserver() = default;
  virtual void on_event(const SessionEvent& event) = 0;
};

/// Bundled observer: records the complete event log and serialises it.
class SessionTimeline final : public SessionObserver {
 public:
  void on_event(const SessionEvent& event) override;

  const std::vector<SessionEvent>& events() const noexcept { return events_; }
  std::size_t count(SessionEventType type) const noexcept;
  void clear() { events_.clear(); }

  /// CSV: header + one row per event (t_s,client,event,segment,attempt,
  /// level,source,buffer_s,value); kNoIndex prints as -1, doubles as %.17g.
  void write_csv(std::ostream& out) const;
  void write_csv(const std::string& path) const;

  /// JSON: {"events": [{...}, ...]} with the same fields as the CSV.
  void write_json(std::ostream& out) const;
  void write_json(const std::string& path) const;

 private:
  std::vector<SessionEvent> events_;
};

/// A cursor over a session's sensors::VibrationTrack, moved in lockstep
/// with the engine clock. It holds no estimator: the track computed the
/// series once, and every replay of the session (and the optimal planner's
/// task builder) reads it through a cursor like this one. advance_to()
/// stops exactly where streaming the samples with timestamp <= t_s into a
/// VibrationEstimator would, NaN and out-of-order timestamps included.
class VibrationClock {
 public:
  /// `track` is unowned and must outlive the clock.
  explicit VibrationClock(const sensors::VibrationTrack& track) : track_(&track) {}

  /// Moves past every sample with timestamp <= t_s and returns the level.
  double advance_to(double t_s) noexcept {
    cursor_ = track_->advance(cursor_, t_s);
    return level();
  }

  /// Current level without consuming further samples.
  double level() const noexcept { return track_->level_after(cursor_); }

 private:
  const sensors::VibrationTrack* track_;
  std::size_t cursor_ = 0;
};

/// How the engine reaches the network. Two resolution modes:
///
///  * analytic (cells() empty): the link resolves one attempt in closed form;
///    unreliable() decides whether the engine runs its retry machine around
///    those attempts;
///  * stepped (cells() non-empty): completion times depend on who else is
///    downloading, so the engine integrates each cell's capacity trace on
///    SessionEngineConfig::step_s steps.
///
/// A method the link does not serve throws std::logic_error (rescue() on
/// SoloLinkModel, which is never unreliable; any analytic method on a
/// stepped link).
class LinkModel {
 public:
  virtual ~LinkModel() = default;

  virtual bool unreliable() const noexcept { return false; }

  // --- analytic links -----------------------------------------------------
  /// Outcome of attempt `attempt` of `segment` started at `start_s`.
  virtual net::AttemptOutcome attempt(std::size_t segment, std::size_t attempt,
                                      double start_s, double size_megabits) const;
  /// Rescue fetch: a held-open transfer that always completes.
  virtual net::DownloadResult rescue(double start_s, double size_megabits) const;
  /// Megabits the link moves over [t0, t1] (waste accounting for aborts).
  virtual double megabits_over(double t0, double t1) const;
  /// True if `t_s` is inside a link outage.
  virtual bool in_outage(double /*t_s*/) const noexcept { return false; }
  /// Seed for the deterministic retry-backoff jitter.
  virtual std::uint64_t fault_seed() const noexcept { return 0; }
  /// Sorted outage schedule for kFaultTransition events (may be null).
  virtual const std::vector<net::OutageWindow>* outage_schedule() const noexcept {
    return nullptr;
  }
  /// CDN links only: the session's segment sources. Non-empty together with
  /// unreliable() makes the sources the retry machine's delivery legs, with
  /// per-source breakers, health-scored selection and (two or more sources)
  /// hedged requests. Empty: the link itself is the machine's single leg,
  /// reached through attempt()/rescue()/megabits_over()/in_outage().
  virtual std::span<const net::SegmentSource> sources() const noexcept {
    return {};
  }

  /// Devirtualization hook for the reliable analytic path. Non-null only when
  /// every attempt() on this link reduces to a plain
  /// `downloader->download(start, size)` — i.e. the model is certifiably
  /// trivial (solo link; fault link with an inactive injector; single
  /// trivial CDN source). The engine then calls the downloader directly per
  /// segment instead of dispatching through attempt(), which is
  /// bit-identical by construction (the virtual path wraps the same call).
  /// Unreliable/stepped links return null and take the full machinery.
  virtual const net::SegmentDownloader* fast_downloader() const noexcept {
    return nullptr;
  }

  // --- stepped links ------------------------------------------------------
  /// The per-cell capacity traces (Mbps), one processor-shared bottleneck
  /// per base station. Non-empty makes the link stepped: clients attach at
  /// SessionClient::home_cell and follow their handoff route.
  /// SharedLinkModel reports its single bottleneck here, which is how the
  /// classic multi-client run becomes a one-cell configuration of the same
  /// path. Empty (the default): an analytic link.
  virtual std::span<const trace::TimeSeries* const> cells() const noexcept {
    return {};
  }
};

/// Dedicated trace-driven link: every attempt completes, nothing times out.
class SoloLinkModel final : public LinkModel {
 public:
  /// The trace is unowned — it must be non-empty (SegmentDownloader
  /// validates) and outlive the model, like SharedLinkModel's capacity
  /// trace. Sweeps build one model per (session, policy) run, so sharing the
  /// session's trace instead of copying it is what makes those runs
  /// allocation-free on the link side.
  explicit SoloLinkModel(const trace::TimeSeries& throughput_mbps)
      : downloader_(net::borrow_trace(throughput_mbps)) {}

  net::AttemptOutcome attempt(std::size_t segment, std::size_t attempt,
                              double start_s, double size_megabits) const override;
  const net::SegmentDownloader* fast_downloader() const noexcept override {
    return &downloader_;
  }

  const net::SegmentDownloader& downloader() const noexcept { return downloader_; }

 private:
  net::SegmentDownloader downloader_;
};

/// Fault-injected link: wraps a net::FaultInjector (unowned, must outlive the
/// model). unreliable() mirrors injector.active(), so a disabled spec behaves
/// exactly like a solo link over the same trace.
class FaultLinkModel final : public LinkModel {
 public:
  explicit FaultLinkModel(const net::FaultInjector& faults) : faults_(&faults) {}

  bool unreliable() const noexcept override { return faults_->active(); }
  net::AttemptOutcome attempt(std::size_t segment, std::size_t attempt,
                              double start_s, double size_megabits) const override;
  net::DownloadResult rescue(double start_s, double size_megabits) const override;
  double megabits_over(double t0, double t1) const override;
  bool in_outage(double t_s) const noexcept override;
  std::uint64_t fault_seed() const noexcept override;
  const std::vector<net::OutageWindow>* outage_schedule() const noexcept override;
  /// Inactive injector: attempt() is exactly downloader().download(...).
  const net::SegmentDownloader* fast_downloader() const noexcept override {
    return faults_->active() ? nullptr : &faults_->downloader();
  }

 private:
  const net::FaultInjector* faults_;
};

/// Multi-source CDN delivery: N SegmentSources (unowned, must outlive the
/// model), one per manifest BaseURL. unreliable() is false only for a single
/// *trivial* source (default CdnFaultSpec, scale 1, RTT 0) — the engine then
/// takes the plain fast path over that source's downloader, which is the
/// certified no-op the sim studies' baselines rely on. Otherwise the engine
/// runs the CDN failover machine: per-source circuit breakers, health-scored
/// source selection and hedged requests (ResilienceConfig's CDN knobs).
/// Source 0 (the origin) provides the fault seed for backoff jitter and the
/// outage schedule surfaced as kFaultTransition events; every other fetch
/// goes to the sources directly.
class CdnLinkModel final : public LinkModel {
 public:
  /// Throws std::invalid_argument on an empty source list.
  explicit CdnLinkModel(std::span<const net::SegmentSource> sources);

  bool unreliable() const noexcept override;
  /// Source 0's attempt (reached only on the reliable path).
  net::AttemptOutcome attempt(std::size_t segment, std::size_t attempt,
                              double start_s, double size_megabits) const override;
  std::uint64_t fault_seed() const noexcept override;
  const std::vector<net::OutageWindow>* outage_schedule() const noexcept override;
  std::span<const net::SegmentSource> sources() const noexcept override {
    return sources_;
  }
  /// Single trivial source: attempt() is its downloader's download() (no
  /// fault gates, scale 1, RTT 0 — the certified no-op configuration).
  const net::SegmentDownloader* fast_downloader() const noexcept override {
    return unreliable() ? nullptr : &sources_[0].downloader();
  }

 private:
  std::span<const net::SegmentSource> sources_;
};

/// Processor-sharing bottleneck: the engine divides the capacity trace
/// equally among clients with an in-flight download. The capacity trace is
/// unowned and must outlive the model.
class SharedLinkModel final : public LinkModel {
 public:
  /// Throws std::invalid_argument on an empty capacity trace.
  explicit SharedLinkModel(const trace::TimeSeries& capacity_mbps);

  std::span<const trace::TimeSeries* const> cells() const noexcept override {
    return {&capacity_, 1};
  }

 private:
  const trace::TimeSeries* capacity_;
};

/// Multi-cell cellular network: one processor-shared capacity trace per base
/// station. Clients attach to SessionClient::home_cell, follow their
/// SessionClient::route between cells (handoffs applied at step edges, an
/// in-flight download carries its remaining bytes to the new cell), and each
/// cell splits its own capacity equally among its downloading members. The
/// traces are unowned and must outlive the model. With a single cell this is
/// exactly SharedLinkModel.
class CellularLinkModel final : public LinkModel {
 public:
  /// Throws std::invalid_argument on an empty cell list or any null/empty
  /// capacity trace.
  explicit CellularLinkModel(std::span<const trace::TimeSeries* const> cells);

  std::span<const trace::TimeSeries* const> cells() const noexcept override {
    return cells_;
  }

 private:
  std::vector<const trace::TimeSeries*> cells_;
};

/// One scheduled cell change on a client's route through a cellular network.
struct CellHop {
  double t_s = 0.0;       ///< earliest time the handoff can happen
  std::size_t cell = 0;   ///< destination cell index
};

/// One participating client. `context` supplies signal/accel traces (and, on
/// analytic links, nothing else — the LinkModel owns throughput).
struct SessionClient {
  const media::VideoManifest* manifest = nullptr;  ///< stream to play
  AbrPolicy* policy = nullptr;                     ///< adaptation algorithm
  const trace::SessionTraces* context = nullptr;   ///< signal/accel context
  double join_time_s = 0.0;  ///< stepped links only: when the client starts

  /// Optional sensor-fault injector (unowned, must outlive the run). When
  /// attached and active, the policy perceives the injector's corrupted
  /// accel/signal streams (graded by a SensorHealthMonitor) while the
  /// physical session — link, true signal, true vibration — is untouched;
  /// TaskRecord::vibration keeps the true estimate, perceived_vibration what
  /// the policy saw. Null or inactive: strict no-op, bit-identical results.
  const sensors::SensorFaultInjector* sensor_faults = nullptr;

  /// Optional true vibration series of `context->accel` (unowned, must
  /// outlive the run), for callers that replay one session many times: built
  /// once, it spares each run the estimator pass. It must have been built
  /// from this very accel vector under the engine's PlayerConfig::vibration,
  /// or the run throws std::invalid_argument. Null: the engine builds one
  /// per run. Either way the values are the same.
  const sensors::VibrationTrack* vibration_track = nullptr;

  // --- cellular links only (LinkModel::cells().size() > 1) ----------------
  /// Cell the client attaches to before its first handoff.
  std::size_t home_cell = 0;
  /// Scheduled handoffs, sorted by t_s (unowned storage, must outlive the
  /// run). Each hop is applied at the first step edge at or after its t_s,
  /// in client index order when several land on the same edge; an in-flight
  /// download carries its remaining megabits to the new cell. Hops to the
  /// current cell are no-ops. Empty: the client never leaves home_cell.
  std::span<const CellHop> route = {};
};

/// Engine knobs. `player` applies to every client; the step/stop values are
/// consulted only for stepped links.
struct SessionEngineConfig {
  PlayerConfig player;
  double step_s = 0.05;           ///< stepped-link integration step
  double max_session_s = 7200.0;  ///< stepped-link hard stop (defensive)
  /// Disables the devirtualized download path and the stateful trace
  /// cursors, forcing the original virtual-dispatch / binary-search-per-
  /// lookup code. Results are bit-identical either way — this switch exists
  /// so tests/differential/ can prove it on every scenario.
  bool reference_mode = false;
};

/// The unified session engine. Stateless across runs: one instance can be
/// reused for any number of runs, links and observers.
class SessionEngine {
 public:
  /// Throws std::invalid_argument on non-positive buffer/step parameters or
  /// startup buffer above the threshold (same contract as PlayerSimulator).
  explicit SessionEngine(SessionEngineConfig config);

  const SessionEngineConfig& config() const noexcept { return config_; }

  /// Runs every client to completion against `link`; result[i] corresponds
  /// to clients[i]. Analytic links require exactly one client (join_time_s
  /// ignored); stepped links accept any number. Policies are reset() first.
  /// Throws std::invalid_argument on null client fields or a vibration
  /// track that does not belong to its client (see SessionClient).
  std::vector<PlaybackResult> run(std::span<const SessionClient> clients,
                                  const LinkModel& link,
                                  SessionObserver* observer = nullptr) const;

 private:
  PlaybackResult run_analytic(const SessionClient& client, const LinkModel& link,
                              SessionObserver* observer) const;
  /// The pre-refactor single-bottleneck stepping loop, kept so the
  /// differential harness can certify the cellular path against it; runs
  /// only for a one-cell link in reference_mode.
  std::vector<PlaybackResult> run_stepped_reference(
      std::span<const SessionClient> clients, const trace::TimeSeries& capacity,
      SessionObserver* observer) const;
  /// The cellular path: per-cell stepping driven by a global (step, cell)
  /// event heap, with handoffs applied at step edges. Single cell is
  /// bit-identical to run_stepped_reference.
  std::vector<PlaybackResult> run_cells(std::span<const SessionClient> clients,
                                        std::span<const trace::TimeSeries* const> cells,
                                        SessionObserver* observer) const;

  SessionEngineConfig config_;
};

}  // namespace eacs::player
