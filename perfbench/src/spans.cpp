#include "spans.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>

namespace perfbench {
namespace {

// Percentiles are handled in units of 1/1000 percent so the rank arithmetic
// stays in integers (0.999 * 10000 is not 9990 in binary floating point).
constexpr std::uint64_t kFullScale = 100000;
constexpr std::uint64_t kTailCandidates[] = {99990, 99900, 99000, 95000, 90000};

std::uint64_t to_units(double p) {
  return static_cast<std::uint64_t>(std::llround(p * 1000.0));
}

/// ceil(units / kFullScale * n), clamped to [1, n].
std::size_t rank_for(std::size_t n, std::uint64_t units) {
  const std::uint64_t rank = (n * units + kFullScale - 1) / kFullScale;
  return static_cast<std::size_t>(
      std::clamp<std::uint64_t>(rank, 1, static_cast<std::uint64_t>(n)));
}

void write_json_string(std::FILE* out, const std::string& text) {
  std::fputc('"', out);
  for (const char c : text) {
    if (c == '"' || c == '\\') std::fputc('\\', out);
    std::fputc(c, out);
  }
  std::fputc('"', out);
}

}  // namespace

SpanRecorder::SpanRecorder(std::string run_id)
    : run_id_(std::move(run_id)), epoch_(Clock::now()) {}

std::int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

std::uint64_t SpanRecorder::begin(std::string name, std::uint64_t parent) {
  const std::int64_t start = now_ns();
  const std::lock_guard<std::mutex> lock(mutex_);
  Span span;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.name = std::move(name);
  span.start_ns = start;
  span.end_ns = start;
  spans_.push_back(std::move(span));
  open_.push_back(true);
  return spans_.back().id;
}

bool SpanRecorder::end(std::uint64_t id) {
  const std::int64_t stop = now_ns();
  const std::lock_guard<std::mutex> lock(mutex_);
  if (id == 0 || id > open_.size() || !open_[id - 1]) return false;
  spans_[id - 1].end_ns = stop;
  open_[id - 1] = false;
  return true;
}

std::vector<Span> SpanRecorder::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void SpanRecorder::write_json(const std::string& path) const {
  const std::vector<Span> snapshot = spans();
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (!file) {
    throw std::runtime_error("SpanRecorder: cannot write " + path);
  }
  std::FILE* out = file.get();
  std::fputs("{\"run_id\": ", out);
  write_json_string(out, run_id_);
  std::fputs(", \"spans\": [", out);
  for (std::size_t i = 0; i < snapshot.size(); ++i) {
    const Span& s = snapshot[i];
    std::fprintf(out,
                 "%s\n  {\"id\": %llu, \"parent\": %llu, \"name\": ",
                 i == 0 ? "" : ",", static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent));
    write_json_string(out, s.name);
    std::fprintf(out, ", \"start_ns\": %lld, \"end_ns\": %lld}",
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  std::fputs("\n]}\n", out);
}

ScopedSpan::ScopedSpan(SpanRecorder* recorder, std::string name,
                       std::uint64_t parent)
    : recorder_(recorder) {
  if (recorder_ != nullptr) id_ = recorder_->begin(std::move(name), parent);
  start_ = Clock::now();
}

ScopedSpan::~ScopedSpan() {
  // Cannot fail: id_ came from begin() and only this object ends it.
  if (recorder_ != nullptr) recorder_->end(id_);
}

double ScopedSpan::elapsed_s() const {
  return std::chrono::duration<double>(Clock::now() - start_).count();
}

std::int64_t self_time_ns(const Span& span, std::span<const Span> children) {
  std::vector<std::pair<std::int64_t, std::int64_t>> covered;
  covered.reserve(children.size());
  for (const Span& child : children) {
    const std::int64_t lo = std::max(child.start_ns, span.start_ns);
    const std::int64_t hi = std::min(child.end_ns, span.end_ns);
    if (hi > lo) covered.emplace_back(lo, hi);
  }
  std::sort(covered.begin(), covered.end());
  std::int64_t union_ns = 0;
  std::int64_t reach = std::numeric_limits<std::int64_t>::min();
  for (const auto& [lo, hi] : covered) {
    const std::int64_t from = std::max(lo, reach);
    if (hi > from) union_ns += hi - from;
    reach = std::max(reach, hi);
  }
  return span.duration_ns() - union_ns;
}

std::vector<Span> children_of(std::span<const Span> spans, std::uint64_t id) {
  std::vector<Span> out;
  for (const Span& s : spans) {
    if (s.parent == id) out.push_back(s);
  }
  return out;
}

std::optional<double> highest_supported_percentile(std::size_t n) {
  for (const std::uint64_t units : kTailCandidates) {
    if (n == 0) break;
    if (n - rank_for(n, units) >= 10) {
      return static_cast<double>(units) / 1000.0;
    }
  }
  return std::nullopt;
}

double nearest_rank(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const std::size_t rank = rank_for(samples.size(), to_units(p));
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

}  // namespace perfbench
