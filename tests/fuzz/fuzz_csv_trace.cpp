// libFuzzer target for the CSV trace-parsing stack: parse_csv plus the two
// schema loaders layered on top of it. Any input must either parse into a
// validated trace or be rejected with the documented exception types
// (std::runtime_error with a line-numbered message from the parsers,
// std::out_of_range for a missing column). Anything else — a crash, a
// sanitizer report, an unexpected exception escaping — is a finding.
//
// A series that parses also runs a differential oracle: at a few query
// times drawn from the input, in the input's (unsorted) order, the
// TimeSeriesCursor linear_at and integral_over and the cursor
// SegmentDownloader::download must return the same bits as their stateless
// forms. A mismatch abort()s.
//
// Built two ways:
//   * with clang + -fsanitize=fuzzer,address as a real libFuzzer binary
//     (EACS_LIBFUZZER=ON, the CI fuzz-smoke leg);
//   * with any compiler as fuzz_csv_trace_replay (replay_main.cpp), which
//     replays tests/fuzz/corpus/csv_trace/ as a plain ctest regression.

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string_view>

#include "eacs/net/downloader.h"
#include "eacs/trace/time_series.h"
#include "eacs/trace/trace_io.h"
#include "eacs/util/csv.h"

namespace {

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// Eight (start, width, size) queries, each picked by the input's own bytes:
// the start is a sample time of the series, kept exactly (duplicate-time
// step edges included) or moved by up to +-2 s.
void check_cursor_oracle(const eacs::trace::TimeSeries& series,
                         std::string_view bytes) {
  if (series.empty() || bytes.empty()) return;
  const auto byte = [&](std::size_t k) {
    return static_cast<unsigned char>(bytes[k % bytes.size()]);
  };
  std::optional<eacs::net::SegmentDownloader> downloader;
  try {
    downloader.emplace(eacs::net::borrow_trace(series));
  } catch (const std::invalid_argument&) {
    // Negative rates: not a throughput trace; integrals are still checked.
  }
  eacs::trace::TimeSeriesCursor walk(series);
  eacs::trace::TimeSeriesCursor fetch(series);
  for (std::size_t q = 0; q < 8; ++q) {
    const unsigned shift = byte(3 * q + 1);
    const double t0 = series.at(byte(3 * q) % series.size()).t_s +
                      (shift % 4 == 0 ? 0.0 : (shift % 64) / 16.0 - 2.0);
    const double t1 = t0 + byte(3 * q + 2) / 32.0;
    if (!same_bits(walk.linear_at(t0), series.linear_at(t0)) ||
        !same_bits(walk.integral_over(t0, t1), series.integral_over(t0, t1))) {
      std::abort();
    }
    if (downloader) {
      const double megabits = byte(3 * q + 2) / 16.0;
      const eacs::net::DownloadResult a = downloader->download(fetch, t0, megabits);
      const eacs::net::DownloadResult b = downloader->download(t0, megabits);
      if (!same_bits(a.end_s, b.end_s) ||
          !same_bits(a.mean_throughput_mbps, b.mean_throughput_mbps)) {
        std::abort();
      }
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string_view text(reinterpret_cast<const char*>(data), size);
  try {
    const eacs::CsvTable table = eacs::parse_csv(text);
    try {
      check_cursor_oracle(eacs::trace::time_series_from_csv(table), text);
    } catch (const std::runtime_error&) {
    } catch (const std::out_of_range&) {
    }
    try {
      (void)eacs::trace::accel_from_csv(table);
    } catch (const std::runtime_error&) {
    } catch (const std::out_of_range&) {
    }
  } catch (const std::runtime_error&) {
    // Malformed CSV, rejected with a line-numbered message: expected.
  }
  return 0;
}
