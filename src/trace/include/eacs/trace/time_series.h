#pragma once
// Time-indexed scalar series: the common representation for throughput traces
// (Mbps) and signal-strength traces (dBm), whether synthetic or loaded from
// CSV recordings.

#include <cstddef>
#include <span>
#include <vector>

namespace eacs::trace {

/// One (time, value) sample.
struct TimePoint {
  double t_s = 0.0;
  double value = 0.0;
};

/// Monotonic time series with step and linear interpolation lookups.
///
/// Timestamps must be finite and non-decreasing. Duplicate (zero-width) timestamps are
/// allowed and represent a step discontinuity: at exactly the shared time the
/// *last* duplicate's value wins, which is how outage edges and real CSV
/// recordings with repeated timestamps are modelled.
class TimeSeries {
 public:
  TimeSeries() = default;

  /// Builds from samples; throws std::invalid_argument if a timestamp is not
  /// finite or timestamps decrease.
  explicit TimeSeries(std::vector<TimePoint> samples);

  /// Appends a sample; throws std::invalid_argument if `t_s` is not finite
  /// or moves backwards in time.
  void append(double t_s, double value);

  bool empty() const noexcept { return samples_.empty(); }
  std::size_t size() const noexcept { return samples_.size(); }
  const TimePoint& at(std::size_t i) const { return samples_.at(i); }
  std::span<const TimePoint> samples() const noexcept { return samples_; }

  double start_time() const;
  double end_time() const;
  double duration() const;

  /// Value of the most recent sample at or before `t_s` (zero-order hold).
  /// Before the first sample, returns the first value.
  double step_at(double t_s) const;

  /// Linear interpolation between neighbouring samples; clamps outside the
  /// covered range.
  double linear_at(double t_s) const;

  /// Mean of `linear_at` over [t0, t1] via trapezoidal integration.
  double mean_over(double t0, double t1) const;

  /// Time-integral of `linear_at` over [t0, t1] (e.g. Mbps * s = Mbits).
  /// Throws std::invalid_argument if t1 < t0. One binary search (for t0);
  /// the breakpoint walk resolves t1.
  double integral_over(double t0, double t1) const;

  /// All values, in time order.
  std::vector<double> values() const;

  /// Uniformly resampled copy (linear interpolation) with step `dt_s`.
  TimeSeries resampled(double dt_s) const;

  /// Index of the last sample with t <= `t_s` (0 before the first sample;
  /// with duplicate timestamps, the *last* duplicate — the right-continuous
  /// step contract). Throws std::logic_error on an empty series. This is the
  /// index every lookup (step_at / linear_at / TimeSeriesCursor) resolves
  /// through, exposed so cursor implementations can certify against it.
  std::size_t index_at_or_before(double t_s) const;

  // --- Resolved-index primitives -------------------------------------------
  // Each lookup has one arithmetic body that takes `index ==
  // index_at_or_before(t_s)`. The stateless lookups resolve that index by
  // binary search, TimeSeriesCursor by walking from its hint, so the two
  // paths are the same arithmetic (bit-identical by construction, not by
  // accident). Trace walkers outside this class (net::SegmentDownloader)
  // build on the same two primitives.

  /// Interpolated value given `index == index_at_or_before(t_s)`: the body
  /// of linear_at.
  double linear_value_from(std::size_t index, double t_s) const;

  /// First sample strictly after `t_s` (size() when none), given `index ==
  /// index_at_or_before(t_s)`: where a forward breakpoint walk from t_s
  /// starts.
  std::size_t first_after(std::size_t index, double t_s) const;

 private:
  friend class TimeSeriesCursor;

  /// Body of integral_over for t1 > t0 (or a NaN bound), given `index ==
  /// index_at_or_before(t0)`; leaves `index == index_at_or_before(t1)`.
  double integral_from(std::size_t& index, double t0, double t1) const;

  std::vector<TimePoint> samples_;
};

/// Stateful lookup cursor over one TimeSeries.
///
/// The stateless lookups binary-search the whole series on every call; the
/// playback engines query traces at points that move almost monotonically
/// (the session clock), so a cursor that walks from the previously resolved
/// index turns per-sample O(log N) searches into amortised O(1) steps.
///
/// Contract (certified by tests/trace/time_series_cursor_test.cpp and the
/// differential harness):
///  * step_at / linear_at / integral_over / mean_over return values bitwise
///    identical to the cursorless TimeSeries lookups for ANY query sequence —
///    forward, backward or repeated times, NaN included, and
///    duplicate-timestamp step edges (the lookup resolves to the last
///    duplicate: right-continuous, last wins). Each pair shares one body
///    over the resolved index; only the index search differs;
///  * the cursor never mutates the series; many cursors may share one;
///  * appending to the series keeps the cursor valid (the resolved prefix is
///    immutable); destroying or moving the series invalidates it — the
///    cursor holds an unowned pointer and must not outlive the series.
class TimeSeriesCursor {
 public:
  /// `series` is unowned and must outlive the cursor.
  explicit TimeSeriesCursor(const TimeSeries& series) noexcept
      : series_(&series) {}

  /// Value of the most recent sample at or before `t_s` (zero-order hold).
  double step_at(double t_s);

  /// Linear interpolation between neighbouring samples; clamps outside the
  /// covered range. Bitwise identical to TimeSeries::linear_at.
  double linear_at(double t_s);

  /// Bitwise identical to TimeSeries::integral_over; leaves the cursor at
  /// t1, so a forward walk of adjacent intervals searches nothing.
  double integral_over(double t0, double t1);

  /// Bitwise identical to TimeSeries::mean_over.
  double mean_over(double t0, double t1);

  /// Resolves TimeSeries::index_at_or_before(t_s) by walking from the cached
  /// hint, falling back to the full binary search when the target is far
  /// away (or t_s is NaN), and moves the hint there.
  std::size_t seek(double t_s);

  const TimeSeries& series() const noexcept { return *series_; }

 private:
  const TimeSeries* series_;
  std::size_t hint_ = 0;
};

}  // namespace eacs::trace
