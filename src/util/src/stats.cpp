#include "eacs/util/stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace eacs {

double mean(std::span<const double> xs) noexcept {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) noexcept {
  if (xs.size() < 2) return 0.0;
  const double mu = mean(xs);
  double accum = 0.0;
  for (double x : xs) accum += (x - mu) * (x - mu);
  return accum / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) noexcept { return std::sqrt(variance(xs)); }

double rms(std::span<const double> xs) noexcept {
  if (xs.empty()) return 0.0;
  double accum = 0.0;
  for (double x : xs) accum += x * x;
  return std::sqrt(accum / static_cast<double>(xs.size()));
}

double harmonic_mean(std::span<const double> xs) noexcept {
  double denom = 0.0;
  std::size_t positives = 0;
  for (double x : xs) {
    if (x > 0.0) {
      denom += 1.0 / x;
      ++positives;
    }
  }
  if (positives == 0) return 0.0;
  return static_cast<double>(positives) / denom;
}

double percentile(std::vector<double> xs, double p) noexcept {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double clamped = std::clamp(p, 0.0, 100.0);
  const double rank = clamped / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

double min_of(std::span<const double> xs) noexcept {
  if (xs.empty()) return 0.0;
  return *std::min_element(xs.begin(), xs.end());
}

double max_of(std::span<const double> xs) noexcept {
  if (xs.empty()) return 0.0;
  return *std::max_element(xs.begin(), xs.end());
}

double pearson(std::span<const double> xs, std::span<const double> ys) noexcept {
  const std::size_t n = std::min(xs.size(), ys.size());
  if (n < 2) return 0.0;
  const double mx = mean(xs.subspan(0, n));
  const double my = mean(ys.subspan(0, n));
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

void RunningStats::add(double x) noexcept {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double total = n1 + n2;
  mean_ += delta * n2 / total;
  m2_ += other.m2_ + delta * delta * n1 * n2 / total;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const noexcept {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

SlidingWindow::SlidingWindow(std::size_t capacity) : capacity_(capacity) {
  if (capacity_ == 0) throw std::invalid_argument("SlidingWindow capacity must be > 0");
  items_.reserve(capacity_);
}

void SlidingWindow::push(double x) {
  if (items_.size() < capacity_) {
    items_.push_back(x);
    return;
  }
  items_[head_] = x;
  head_ = (head_ + 1) % capacity_;
}

void SlidingWindow::clear() noexcept {
  items_.clear();
  head_ = 0;
}

std::vector<double> SlidingWindow::values() const {
  std::vector<double> out;
  out.reserve(items_.size());
  for (std::size_t i = 0; i < items_.size(); ++i) {
    out.push_back(items_[(head_ + i) % items_.size()]);
  }
  return out;
}

double SlidingWindow::mean() const noexcept { return eacs::mean(items_); }

double SlidingWindow::harmonic_mean() const noexcept { return eacs::harmonic_mean(items_); }

double SlidingWindow::rms() const noexcept { return eacs::rms(items_); }

P2Quantile::P2Quantile(double p) : p_(p) {
  if (!(p > 0.0 && p < 1.0)) {
    throw std::invalid_argument("P2Quantile p must be in (0, 1)");
  }
}

void P2Quantile::add(double x) {
  // Bootstrap: the first five samples become the markers, kept sorted.
  if (count_ < 5) {
    heights_[count_] = x;
    ++count_;
    std::sort(heights_.begin(), heights_.begin() + static_cast<long>(count_));
    if (count_ == 5) {
      for (int i = 0; i < 5; ++i) positions_[i] = static_cast<double>(i + 1);
      desired_ = {1.0, 1.0 + 2.0 * p_, 1.0 + 4.0 * p_, 3.0 + 2.0 * p_, 5.0};
      increments_ = {0.0, p_ / 2.0, p_, (1.0 + p_) / 2.0, 1.0};
    }
    return;
  }

  // Locate the cell containing x and clamp the extreme markers.
  int k;
  if (x < heights_[0]) {
    heights_[0] = x;
    k = 0;
  } else if (x >= heights_[4]) {
    heights_[4] = x;
    k = 3;
  } else {
    k = 0;
    while (k < 3 && x >= heights_[k + 1]) ++k;
  }

  for (int i = k + 1; i < 5; ++i) positions_[i] += 1.0;
  for (int i = 0; i < 5; ++i) desired_[i] += increments_[i];
  ++count_;

  // Adjust the interior markers toward their desired positions.
  for (int i = 1; i <= 3; ++i) {
    const double d = desired_[i] - positions_[i];
    const double below = positions_[i] - positions_[i - 1];
    const double above = positions_[i + 1] - positions_[i];
    if ((d >= 1.0 && above > 1.0) || (d <= -1.0 && below > 1.0)) {
      const double sign = d >= 0.0 ? 1.0 : -1.0;
      // Piecewise-parabolic (P^2) prediction of the marker height.
      const double np = positions_[i + 1] - positions_[i - 1];
      const double candidate =
          heights_[i] +
          sign / np *
              ((below + sign) * (heights_[i + 1] - heights_[i]) / above +
               (above - sign) * (heights_[i] - heights_[i - 1]) / below);
      if (heights_[i - 1] < candidate && candidate < heights_[i + 1]) {
        heights_[i] = candidate;
      } else {
        // Parabolic prediction left the bracket; fall back to linear.
        const int j = i + static_cast<int>(sign);
        heights_[i] += sign * (heights_[j] - heights_[i]) /
                       (positions_[j] - positions_[i]);
      }
      positions_[i] += sign;
    }
  }
}

void P2Quantile::restore(const P2QuantileState& state) {
  if (!(state.p > 0.0 && state.p < 1.0)) {
    throw std::invalid_argument("P2Quantile::restore: p must be in (0, 1)");
  }
  p_ = state.p;
  count_ = state.count;
  heights_ = state.heights;
  positions_ = state.positions;
  desired_ = state.desired;
  increments_ = state.increments;
}

double P2Quantile::value() const noexcept {
  if (count_ == 0) return 0.0;
  if (count_ < 5) {
    // Exact quantile of the sorted bootstrap buffer.
    const double rank = p_ * static_cast<double>(count_ - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, count_ - 1);
    const double frac = rank - static_cast<double>(lo);
    return heights_[lo] + (heights_[hi] - heights_[lo]) * frac;
  }
  return heights_[2];
}

ReservoirSampler::ReservoirSampler(std::size_t capacity, std::uint64_t seed)
    : capacity_(capacity), rng_(seed) {
  if (capacity_ == 0) {
    throw std::invalid_argument("ReservoirSampler capacity must be > 0");
  }
  // No reserve(capacity_): add() grows the sample as it fills, so a large
  // capacity costs nothing until that many values arrive.
}

void ReservoirSampler::add(double x) {
  ++count_;
  if (items_.size() < capacity_) {
    items_.push_back(x);
    return;
  }
  // Algorithm R: keep x with probability capacity/count, evicting uniformly.
  const auto j = static_cast<std::size_t>(
      rng_.uniform_int(0, static_cast<std::int64_t>(count_) - 1));
  if (j < capacity_) items_[j] = x;
}

void ReservoirSampler::merge(const ReservoirSampler& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    // Adopt the other reservoir's sample but keep our own Rng stream so the
    // merged state stays a pure function of (this seed, both streams).
    items_ = other.items_;
    count_ = other.count_;
    return;
  }
  // Each output slot keeps this side's element with probability
  // count/(count+other.count), otherwise draws uniformly from the other
  // reservoir. Count-weighting preserves uniformity over the union stream.
  const double total = static_cast<double>(count_) + static_cast<double>(other.count_);
  const double keep_self = static_cast<double>(count_) / total;
  const std::size_t out_size = std::min(capacity_, items_.size() + other.items_.size());
  std::vector<double> merged;
  merged.reserve(out_size);
  for (std::size_t i = 0; i < out_size; ++i) {
    if (i < items_.size() && (i >= other.items_.size() || rng_.uniform() < keep_self)) {
      merged.push_back(items_[i]);
    } else {
      const auto j = static_cast<std::size_t>(rng_.uniform_int(
          0, static_cast<std::int64_t>(other.items_.size()) - 1));
      merged.push_back(other.items_[j]);
    }
  }
  items_ = std::move(merged);
  count_ += other.count_;
}

void ReservoirSampler::restore(const ReservoirSamplerState& state) {
  if (state.capacity == 0) {
    throw std::invalid_argument("ReservoirSampler::restore: zero capacity");
  }
  if (state.items.size() > state.capacity) {
    throw std::invalid_argument(
        "ReservoirSampler::restore: more kept items than capacity");
  }
  if (state.items.size() != std::min(state.count, state.capacity)) {
    throw std::invalid_argument(
        "ReservoirSampler::restore: kept-item count inconsistent with stream "
        "count");
  }
  Rng rng(0);  // seed irrelevant; the state overwrite below is total
  rng.restore(state.rng);
  capacity_ = state.capacity;
  count_ = state.count;
  rng_ = rng;
  // No reserve(capacity_): the restored capacity is only checked against
  // the kept items, and add() grows the sample as it fills.
  items_ = state.items;
}

double ReservoirSampler::quantile(double p) const {
  return percentile(items_, std::clamp(p, 0.0, 1.0) * 100.0);
}

}  // namespace eacs
