// Exact counter pin for the SessionEngine hot path of
// bench/bench_session_hotpath.cpp: the analytic solo loop consults the ABR
// policy exactly once per segment, on the fast paths and under
// reference_mode alike, for every Table V session. A hidden re-evaluation
// (or a skipped one) changes the count. The release CI leg checks the same
// contract from the bench's JSON output.
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "eacs/abr/festive.h"
#include "eacs/media/manifest.h"
#include "eacs/player/session_engine.h"
#include "eacs/trace/session.h"

namespace eacs::player {
namespace {

/// Delegating wrapper that counts choose_level consultations.
class CountingPolicy final : public AbrPolicy {
 public:
  explicit CountingPolicy(AbrPolicy& inner) : inner_(&inner) {}

  std::string name() const override { return inner_->name(); }
  std::size_t choose_level(const AbrContext& context) override {
    ++calls_;
    return inner_->choose_level(context);
  }
  void on_download_failure(const DownloadFailure& failure) override {
    inner_->on_download_failure(failure);
  }
  void reset() override { inner_->reset(); }

  std::uint64_t calls() const noexcept { return calls_; }

 private:
  AbrPolicy* inner_;
  std::uint64_t calls_ = 0;
};

TEST(SessionHotPathPinsTest, OnePolicyConsultationPerSegment) {
  for (const trace::SessionTraces& session : trace::build_all_sessions()) {
    const media::VideoManifest manifest(
        "trace" + std::to_string(session.spec.id), session.spec.length_s, 2.0,
        media::BitrateLadder::evaluation14());
    const SoloLinkModel link(session.throughput_mbps);
    for (const bool reference_mode : {false, true}) {
      abr::Festive inner;
      CountingPolicy counting(inner);
      const SessionClient client{&manifest, &counting, &session, 0.0};
      SessionEngineConfig config;
      config.reference_mode = reference_mode;
      const auto results = SessionEngine(config).run(
          std::span<const SessionClient>(&client, 1), link);
      ASSERT_EQ(results.size(), 1U);
      const std::size_t segments = results.front().tasks.size();
      EXPECT_EQ(segments, manifest.num_segments())
          << "session " << session.spec.id;
      EXPECT_EQ(counting.calls(), segments)
          << "session " << session.spec.id
          << (reference_mode ? " (reference_mode)" : " (fast path)");
    }
  }
}

}  // namespace
}  // namespace eacs::player
