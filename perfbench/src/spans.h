#pragma once
// In-memory span recording and the small statistics helpers the benchmark
// reports with.
//
// A span is one timed call from the benchmark into a library layer: a name, a
// start and end on the steady clock, and the id of the span that caused it
// (0 for a root). Every span of one workload run carries the recorder's run
// id. Spans stay in memory while the workload runs and are written out once,
// as JSON, when it ends — recording never touches the disk mid-measurement.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root span
  std::string name;
  std::int64_t start_ns = 0;  ///< relative to the recorder's epoch
  std::int64_t end_ns = 0;

  std::int64_t duration_ns() const noexcept { return end_ns - start_ns; }
};

/// Thread-safe span store. Span ids are 1, 2, 3, ... in begin order.
class SpanRecorder {
 public:
  explicit SpanRecorder(std::string run_id);

  const std::string& run_id() const noexcept { return run_id_; }

  /// Opens a span and returns its id.
  std::uint64_t begin(std::string name, std::uint64_t parent);
  /// Closes span `id`; false (and no change) for an unknown or closed id.
  bool end(std::uint64_t id);

  /// Snapshot of every span recorded so far, in begin order.
  std::vector<Span> spans() const;

  /// Writes {"run_id", "spans": [...]} to `path`; throws std::runtime_error
  /// when the file cannot be written.
  void write_json(const std::string& path) const;

 private:
  std::int64_t now_ns() const;

  std::string run_id_;
  Clock::time_point epoch_;
  mutable std::mutex mutex_;  // guards spans_ and open_
  std::vector<Span> spans_;
  std::vector<bool> open_;  // by id - 1: span id has begun but not ended
};

/// RAII span. With a null recorder it records nothing but still times the
/// scope, so traced and untraced paths share one code path.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name, std::uint64_t parent = 0);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Span id, or 0 when not recording.
  std::uint64_t id() const noexcept { return id_; }
  /// Seconds since the scope opened.
  double elapsed_s() const;

 private:
  SpanRecorder* recorder_;
  std::uint64_t id_ = 0;
  Clock::time_point start_;
};

/// Self time of `span`: its duration minus the part of its interval that
/// its direct children cover. Children are clipped to the parent's interval
/// and overlapping children (parallel work) count once.
std::int64_t self_time_ns(const Span& span, std::span<const Span> children);

/// The direct children of span `id` in `spans`.
std::vector<Span> children_of(std::span<const Span> spans, std::uint64_t id);

/// Tail-percentile rule: of the candidate percentiles 90, 95, 99, 99.9 and
/// 99.99, the highest that leaves at least ten of `n` samples beyond it
/// (nearest-rank: the p-th percentile is the ceil(p/100 * n)-th smallest).
/// nullopt when even p90 leaves fewer than ten.
std::optional<double> highest_supported_percentile(std::size_t n);

/// Nearest-rank percentile of `samples` (any order), p in (0, 100].
/// Returns 0 for an empty input.
double nearest_rank(std::vector<double> samples, double p);

/// Median of `samples` (mean of the middle pair for even counts); 0 when
/// empty.
double median(std::vector<double> samples);

}  // namespace perfbench
