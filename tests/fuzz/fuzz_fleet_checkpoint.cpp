// libFuzzer target for the fleet checkpoint sidecar (DESIGN §14). The input
// is written to a temporary file, loaded with load_fleet_checkpoint and
// resumed under the 400-session, 8-cell, 4-region test fleet. Both steps
// must either succeed or throw the documented std::runtime_error (a
// malformed token stream) / std::invalid_argument (a checkpoint that does
// not fit the config); crashes, sanitizer reports and other escaping
// exceptions are findings. The corpus seeds a valid sidecar of that fleet
// plus hand-tampered ones, so mutations reach resume's checks.
//
// Built both as a clang libFuzzer binary (EACS_LIBFUZZER=ON) and as the plain
// fuzz_fleet_checkpoint_replay regression binary that replays
// tests/fuzz/corpus/fleet_checkpoint/.

#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "eacs/sim/fleet.h"
#include "eacs/sim/fleet_checkpoint.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("fuzz_fleet_checkpoint_" + std::to_string(::getpid()) + ".ckpt"))
          .string();
  {
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(data),
              static_cast<std::streamsize>(size));
  }
  eacs::sim::FleetConfig config;
  config.network.num_cells = 8;
  config.num_sessions = 400;
  config.arrival_rate_per_s = 4.0;
  config.segments_per_session = 12;
  config.regions = 4;
  try {
    const eacs::sim::FleetCheckpoint checkpoint =
        eacs::sim::load_fleet_checkpoint(path);
    (void)eacs::sim::resume_fleet(config, checkpoint);
  } catch (const std::runtime_error&) {
  } catch (const std::invalid_argument&) {
  }
  std::remove(path.c_str());
  return 0;
}
