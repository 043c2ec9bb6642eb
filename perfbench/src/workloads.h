#pragma once
// The benchmark's four named workloads and the metrics they report.
//
// Each workload builds its inputs from the workload seed alone, runs one
// batch call into the library per timed repeat, checks every result, and
// reports either the end-to-end metrics (untraced run) or the per-layer
// metrics (traced run). The metric names and units here are the ones
// BENCHMARK.json lists; run.py checks the two agree.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "spans.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::size_t jobs = 4;
  std::string out_dir = ".";  ///< spans and checkpoint sidecars go here
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::uint64_t attempted = 0;  ///< timed operations (batch calls)
  std::uint64_t failed = 0;     ///< operations that failed a check
  std::vector<std::string> failures;  ///< one line per failed check
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< human-readable detail lines
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Runs one workload. `recorder` is non-null exactly when options.trace is
/// set. Throws std::invalid_argument on an unknown workload name.
Report run_workload(const Options& options, SpanRecorder* recorder);

}  // namespace perfbench
