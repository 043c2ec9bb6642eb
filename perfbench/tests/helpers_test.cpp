// Tests of the benchmark's own helpers: span self time, the
// tail-percentile rule, and the span recorder. Reports every failed check and
// exits non-zero; plain C++ so the benchmark package needs no test framework.

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "spans.h"

namespace {

int failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "helpers_test.cpp:%d: check failed: %s\n", line, what);
    ++failures;
  }
}

#define CHECK(cond) check((cond), #cond, __LINE__)

perfbench::Span make_span(std::uint64_t id, std::uint64_t parent,
                          std::int64_t start, std::int64_t end) {
  perfbench::Span s;
  s.id = id;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

void self_time_without_children_is_duration() {
  const auto root = make_span(1, 0, 100, 350);
  CHECK(perfbench::self_time_ns(root, {}) == 250);
}

void self_time_subtracts_disjoint_children() {
  const auto root = make_span(1, 0, 0, 100);
  const std::vector<perfbench::Span> kids = {make_span(2, 1, 10, 30),
                                             make_span(3, 1, 50, 60)};
  CHECK(perfbench::self_time_ns(root, kids) == 70);
}

void self_time_counts_overlapping_children_once() {
  // Parallel children: [10,50) and [30,70) cover [10,70) = 60 ns.
  const auto root = make_span(1, 0, 0, 100);
  const std::vector<perfbench::Span> kids = {make_span(3, 1, 30, 70),
                                             make_span(2, 1, 10, 50)};
  CHECK(perfbench::self_time_ns(root, kids) == 40);
}

void self_time_clips_children_to_the_parent() {
  const auto root = make_span(1, 0, 100, 200);
  const std::vector<perfbench::Span> kids = {make_span(2, 1, 50, 120),
                                             make_span(3, 1, 190, 400),
                                             make_span(4, 1, 300, 400)};
  CHECK(perfbench::self_time_ns(root, kids) == 70);
}

void self_time_nested_child_inside_child() {
  const auto root = make_span(1, 0, 0, 100);
  const std::vector<perfbench::Span> kids = {make_span(2, 1, 10, 90),
                                             make_span(3, 1, 20, 30)};
  CHECK(perfbench::self_time_ns(root, kids) == 20);
  const std::vector<perfbench::Span> whole = {make_span(6, 5, 0, 100)};
  CHECK(perfbench::self_time_ns(make_span(5, 0, 0, 100), whole) == 0);
}

void children_of_selects_direct_children() {
  const std::vector<perfbench::Span> spans = {
      make_span(1, 0, 0, 10), make_span(2, 1, 1, 2), make_span(3, 2, 1, 2),
      make_span(4, 1, 3, 4)};
  const auto kids = perfbench::children_of(spans, 1);
  CHECK(kids.size() == 2);
  CHECK(kids.size() == 2 && kids[0].id == 2 && kids[1].id == 4);
}

void percentile_rule_picks_highest_with_ten_beyond() {
  using perfbench::highest_supported_percentile;
  CHECK(!highest_supported_percentile(0).has_value());
  CHECK(!highest_supported_percentile(99).has_value());
  CHECK(highest_supported_percentile(100) == std::optional<double>(90.0));
  CHECK(highest_supported_percentile(199) == std::optional<double>(90.0));
  CHECK(highest_supported_percentile(200) == std::optional<double>(95.0));
  CHECK(highest_supported_percentile(999) == std::optional<double>(95.0));
  CHECK(highest_supported_percentile(1000) == std::optional<double>(99.0));
  // Exactly ten beyond p99.9 at n = 10000; exercises the integer rank math
  // (0.999 * 10000 rounds up past 9990 in floating point).
  CHECK(highest_supported_percentile(10000) == std::optional<double>(99.9));
  CHECK(highest_supported_percentile(100000) == std::optional<double>(99.99));
}

void nearest_rank_and_median() {
  std::vector<double> xs;
  for (int i = 100; i >= 1; --i) xs.push_back(i);  // 1..100, reversed
  CHECK(perfbench::nearest_rank(xs, 90.0) == 90.0);
  CHECK(perfbench::nearest_rank(xs, 99.0) == 99.0);
  CHECK(perfbench::nearest_rank(xs, 100.0) == 100.0);
  CHECK(perfbench::nearest_rank({}, 50.0) == 0.0);
  CHECK(perfbench::median(xs) == 50.5);
  CHECK(perfbench::median({3.0, 1.0, 2.0}) == 2.0);
  CHECK(perfbench::median({}) == 0.0);
}

void recorder_links_parents_and_shares_the_run_id() {
  perfbench::SpanRecorder recorder("run-42");
  std::uint64_t child = 0;
  std::uint64_t root = 0;
  {
    perfbench::ScopedSpan outer(&recorder, "outer");
    root = outer.id();
    perfbench::ScopedSpan inner(&recorder, "inner", outer.id());
    child = inner.id();
  }
  const auto spans = recorder.spans();
  CHECK(recorder.run_id() == "run-42");
  CHECK(spans.size() == 2);
  CHECK(root == 1 && child == 2);
  CHECK(spans.size() == 2 && spans[1].parent == root);
  CHECK(spans.size() == 2 && spans[0].end_ns >= spans[1].end_ns);
  CHECK(spans.size() == 2 &&
        perfbench::self_time_ns(spans[0], perfbench::children_of(spans, root)) >= 0);

  CHECK(!recorder.end(child));  // already closed
  CHECK(!recorder.end(0));
  CHECK(!recorder.end(99));

  perfbench::ScopedSpan untraced(nullptr, "off");
  CHECK(untraced.id() == 0);
  CHECK(untraced.elapsed_s() >= 0.0);
}

}  // namespace

int main() {
  self_time_without_children_is_duration();
  self_time_subtracts_disjoint_children();
  self_time_counts_overlapping_children_once();
  self_time_clips_children_to_the_parent();
  self_time_nested_child_inside_child();
  children_of_selects_direct_children();
  percentile_rule_picks_highest_with_ten_beyond();
  nearest_rank_and_median();
  recorder_links_parents_and_shares_the_run_id();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench helpers: all checks passed\n");
  return 0;
}
