#include "eacs/trace/time_series.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace eacs::trace {

namespace {

// A NaN timestamp compares false against everything, so a `t < prev` order
// check alone would let it (and any decrease across it) through; every
// binary search and cursor walk assumes sorted, finite times.
void check_timestamp(double t_s, const char* where) {
  if (!std::isfinite(t_s)) {
    throw std::invalid_argument(std::string(where) + ": timestamp must be finite");
  }
}

// Shared argument check of integral_over: throws on t1 < t0 and returns
// true when the interval is empty (t1 == t0), whose integral is 0.
bool empty_interval(double t0, double t1) {
  if (t1 < t0) throw std::invalid_argument("TimeSeries::integral_over: t1 < t0");
  return t1 == t0;
}

}  // namespace

TimeSeries::TimeSeries(std::vector<TimePoint> samples) : samples_(std::move(samples)) {
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    check_timestamp(samples_[i].t_s, "TimeSeries");
    if (i > 0 && samples_[i].t_s < samples_[i - 1].t_s) {
      throw std::invalid_argument("TimeSeries: timestamps must not decrease");
    }
  }
}

void TimeSeries::append(double t_s, double value) {
  check_timestamp(t_s, "TimeSeries::append");
  if (!samples_.empty() && t_s < samples_.back().t_s) {
    throw std::invalid_argument("TimeSeries::append: time must not go backwards");
  }
  samples_.push_back({t_s, value});
}

double TimeSeries::start_time() const {
  if (samples_.empty()) throw std::logic_error("TimeSeries: empty");
  return samples_.front().t_s;
}

double TimeSeries::end_time() const {
  if (samples_.empty()) throw std::logic_error("TimeSeries: empty");
  return samples_.back().t_s;
}

double TimeSeries::duration() const { return end_time() - start_time(); }

std::size_t TimeSeries::index_at_or_before(double t_s) const {
  if (samples_.empty()) throw std::logic_error("TimeSeries: empty");
  // First sample with t > t_s, then step back.
  const auto it = std::upper_bound(
      samples_.begin(), samples_.end(), t_s,
      [](double t, const TimePoint& p) { return t < p.t_s; });
  if (it == samples_.begin()) return 0;
  return static_cast<std::size_t>(std::distance(samples_.begin(), it)) - 1;
}

double TimeSeries::step_at(double t_s) const {
  return samples_[index_at_or_before(t_s)].value;
}

double TimeSeries::linear_value_from(std::size_t i, double t_s) const {
  if (t_s < samples_.front().t_s) return samples_.front().value;
  if (i + 1 >= samples_.size()) return samples_.back().value;
  const TimePoint& a = samples_[i];
  const TimePoint& b = samples_[i + 1];
  // Zero-width breakpoints (duplicate timestamps) are step discontinuities;
  // index_at_or_before already resolved to the last duplicate, so `a` holds
  // the value that applies at exactly `t_s`.
  if (b.t_s <= a.t_s) return b.value;
  const double frac = (t_s - a.t_s) / (b.t_s - a.t_s);
  return a.value + frac * (b.value - a.value);
}

double TimeSeries::linear_at(double t_s) const {
  return linear_value_from(index_at_or_before(t_s), t_s);
}

std::size_t TimeSeries::first_after(std::size_t index, double t_s) const {
  // `index` is index_at_or_before(t_s): samples_[index] is at or before t_s
  // unless t_s precedes the series (index 0, every sample after it). Written
  // as `> t_s` so a NaN query (resolved to the last sample) lands past the
  // end, where std::upper_bound puts it: the walk from it visits nothing.
  return samples_[index].t_s > t_s ? 0 : index + 1;
}

double TimeSeries::integral_from(std::size_t& index, double t0, double t1) const {
  // Trapezoidal rule over the interpolated signal: integrate between every
  // pair of breakpoints intersected by [t0, t1], in time order.
  double total = 0.0;
  double cursor = t0;
  double cursor_value = linear_value_from(index, t0);
  std::size_t i = first_after(index, t0);
  // Strictly-greater stop: breakpoints exactly at t1 (including zero-width
  // step duplicates) must still update cursor_value, or a step at t1 would
  // leak the post-step value into the closing trapezoid.
  for (; i < samples_.size() && !(samples_[i].t_s > t1); ++i) {
    const TimePoint& p = samples_[i];
    total += 0.5 * (cursor_value + p.value) * (p.t_s - cursor);
    cursor = p.t_s;
    cursor_value = p.value;
  }
  // The walk stopped on the first sample after t1, so the one before it is
  // index_at_or_before(t1): the closing lookup needs no search.
  index = i == 0 ? 0 : i - 1;
  const double end_value = linear_value_from(index, t1);
  total += 0.5 * (cursor_value + end_value) * (t1 - cursor);
  return total;
}

double TimeSeries::integral_over(double t0, double t1) const {
  if (empty_interval(t0, t1)) return 0.0;
  std::size_t index = index_at_or_before(t0);
  return integral_from(index, t0, t1);
}

double TimeSeries::mean_over(double t0, double t1) const {
  if (t1 <= t0) return linear_at(t0);
  return integral_over(t0, t1) / (t1 - t0);
}

std::vector<double> TimeSeries::values() const {
  std::vector<double> out;
  out.reserve(samples_.size());
  for (const auto& p : samples_) out.push_back(p.value);
  return out;
}

TimeSeries TimeSeries::resampled(double dt_s) const {
  if (dt_s <= 0.0) throw std::invalid_argument("TimeSeries::resampled: dt must be > 0");
  if (samples_.empty()) return {};
  TimeSeries out;
  const double t0 = start_time();
  const double t1 = end_time();
  for (double t = t0; t <= t1 + 1e-12; t += dt_s) {
    out.append(t, linear_at(std::min(t, t1)));
  }
  return out;
}

// --- TimeSeriesCursor -------------------------------------------------------

std::size_t TimeSeriesCursor::seek(double t_s) {
  const std::span<const TimePoint> s = series_->samples();
  // Empty series: delegate so the error is identical to the stateless path.
  // A NaN compares false against every sample, so neither walk below would
  // move; the stateless search resolves it to the last sample.
  if (s.empty() || std::isnan(t_s)) return hint_ = series_->index_at_or_before(t_s);
  // Walk from the cached hint; if the target is far, fall back to the full
  // binary search so a pathological query sequence stays O(log N) per call.
  constexpr std::size_t kMaxLinearSteps = 32;
  std::size_t i = std::min(hint_, s.size() - 1);
  std::size_t steps = 0;
  while (i + 1 < s.size() && s[i + 1].t_s <= t_s) {
    if (++steps > kMaxLinearSteps) return hint_ = series_->index_at_or_before(t_s);
    ++i;
  }
  while (i > 0 && s[i].t_s > t_s) {
    if (++steps > kMaxLinearSteps) return hint_ = series_->index_at_or_before(t_s);
    --i;
  }
  // Loop invariants leave i as the last index with t <= t_s (or 0 when t_s
  // precedes the series) — exactly TimeSeries::index_at_or_before(t_s),
  // including the last-duplicate-wins rule at zero-width step edges.
  return hint_ = i;
}

double TimeSeriesCursor::step_at(double t_s) {
  return series_->samples()[seek(t_s)].value;
}

double TimeSeriesCursor::linear_at(double t_s) {
  return series_->linear_value_from(seek(t_s), t_s);
}

double TimeSeriesCursor::integral_over(double t0, double t1) {
  if (empty_interval(t0, t1)) return 0.0;
  seek(t0);  // hint_ = index_at_or_before(t0); the walk leaves it at t1's
  return series_->integral_from(hint_, t0, t1);
}

double TimeSeriesCursor::mean_over(double t0, double t1) {
  if (t1 <= t0) return linear_at(t0);
  return integral_over(t0, t1) / (t1 - t0);
}

}  // namespace eacs::trace
