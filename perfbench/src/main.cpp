// perfbench: runs one named workload and prints its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>]
//
// Prints a header (nproc, jobs, build type, seed), the correctness failures
// and human-readable detail, then, as the last line, one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// With --trace 1 the spans of the run are written to
// <out-dir>/spans-<workload>-<seed>.json. Exits 1 when any check failed,
// 2 on a usage or runtime error.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include "spans.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

int usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>]\n",
               message);
  return 2;
}

void print_json_string(const std::string& text) {
  std::putchar('"');
  for (const char c : text) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(c);
  }
  std::putchar('"');
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  const unsigned nproc = std::max(1U, std::thread::hardware_concurrency());
  // Four workers, never more than the machine has cores.
  options.jobs = std::min<std::size_t>(4, nproc);

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
      const std::string value = argv[++i];
      if (flag == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
        have_seconds = options.seconds > 0.0 && std::isfinite(options.seconds);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        options.trace = value == "1";
        have_trace = true;
      } else if (flag == "--out-dir") {
        options.out_dir = value;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    }
  } catch (const std::exception&) {
    return usage("malformed numeric argument");
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds (> 0) and --trace are required");
  }
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf("nproc=%u jobs=%zu build_type=%s\n", nproc, options.jobs,
              PERFBENCH_BUILD_TYPE);
  std::fflush(stdout);

  perfbench::Report report;
  try {
    std::filesystem::create_directories(options.out_dir);
    const std::string run_id =
        options.workload + "-" + std::to_string(options.seed) + "-" +
        std::to_string(std::chrono::system_clock::now().time_since_epoch() /
                       std::chrono::microseconds(1));
    std::unique_ptr<perfbench::SpanRecorder> recorder;
    if (options.trace) {
      recorder = std::make_unique<perfbench::SpanRecorder>(run_id);
    }
    report = perfbench::run_workload(options, recorder.get());
    if (recorder) {
      const std::string path = (std::filesystem::path(options.out_dir) /
                                ("spans-" + options.workload + "-" +
                                 std::to_string(options.seed) + ".json"))
                                   .string();
      recorder->write_json(path);
      std::printf("spans: %zu written to %s (run id %s)\n",
                  recorder->spans().size(), path.c_str(), run_id.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }

  for (const auto& metric : report.metrics) {
    if (!std::isfinite(metric.value)) {
      report.failures.push_back("metric " + metric.name + " is not finite");
    }
  }
  for (const auto& line : report.notes) std::printf("  %s\n", line.c_str());
  for (const auto& metric : report.metrics) {
    std::printf("  %-40s %.10g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  for (const auto& failure : report.failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }
  const bool correct = report.failures.empty() && report.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& metric = report.metrics[i];
    if (i > 0) std::printf(", ");
    print_json_string(metric.name);
    std::printf(": {\"value\": %.17g, \"unit\": ",
                std::isfinite(metric.value) ? metric.value : 0.0);
    print_json_string(metric.unit);
    std::printf("}");
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}
