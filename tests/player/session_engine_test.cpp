#include "eacs/player/session_engine.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <functional>
#include <fstream>
#include <sstream>

#include "eacs/abr/bba.h"
#include "eacs/abr/festive.h"
#include "eacs/abr/fixed.h"
#include "eacs/core/online.h"
#include "eacs/core/optimal.h"
#include "eacs/net/fault_injector.h"
#include "eacs/player/multi_client.h"
#include "eacs/player/player.h"
#include "../test_helpers.h"

namespace eacs::player {
namespace {

using eacs::testing::make_manifest;
using eacs::testing::make_session;
using eacs::testing::make_step_session;

net::FaultSpec outage_spec() {
  net::FaultSpec spec;
  spec.outages.push_back({20.0, 40.0});
  return spec;
}

/// First index of an event of `type`, or npos.
std::size_t first_index(const SessionTimeline& timeline, SessionEventType type) {
  const auto& events = timeline.events();
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].type == type) return i;
  }
  return kNoIndex;
}

TEST(SessionEngineTest, ConfigValidation) {
  SessionEngineConfig bad;
  bad.player.buffer_threshold_s = 0.0;
  EXPECT_THROW(SessionEngine{bad}, std::invalid_argument);
  bad = SessionEngineConfig{};
  bad.player.startup_buffer_s = bad.player.buffer_threshold_s + 1.0;
  EXPECT_THROW(SessionEngine{bad}, std::invalid_argument);
  bad = SessionEngineConfig{};
  bad.step_s = 0.0;
  EXPECT_THROW(SessionEngine{bad}, std::invalid_argument);
  EXPECT_NO_THROW(SessionEngine{SessionEngineConfig{}});
}

TEST(SessionEngineTest, AnalyticLinksTakeExactlyOneClient) {
  const auto manifest = make_manifest(20.0, 2.0);
  const auto session = make_session(20.0, 10.0);
  abr::FixedBitrate a(3, "A");
  abr::FixedBitrate b(3, "B");
  const SoloLinkModel link(session.throughput_mbps);
  const SessionEngine engine{SessionEngineConfig{}};
  std::vector<SessionClient> two = {{&manifest, &a, &session, 0.0},
                                    {&manifest, &b, &session, 0.0}};
  EXPECT_THROW(engine.run(two, link), std::invalid_argument);
  std::vector<SessionClient> null_client = {{nullptr, &a, &session, 0.0}};
  EXPECT_THROW(engine.run(null_client, link), std::invalid_argument);
}

TEST(SessionEngineTest, WrongModeLinkCallsThrow) {
  const auto session = make_session(20.0, 10.0);
  const SharedLinkModel shared(session.throughput_mbps);
  EXPECT_THROW(shared.attempt(0, 0, 0.0, 1.0), std::logic_error);
  EXPECT_THROW(shared.rescue(0.0, 1.0), std::logic_error);
  EXPECT_THROW(shared.megabits_over(0.0, 1.0), std::logic_error);
  EXPECT_THROW(SharedLinkModel{trace::TimeSeries{}}, std::invalid_argument);
}

TEST(SessionEngineTest, ObserverNeverPerturbsTheResult) {
  const auto manifest = make_manifest(60.0, 2.0);
  const auto session = make_session(60.0, 8.0);
  const PlayerSimulator simulator(manifest);

  abr::Festive bare_policy;
  const auto bare = simulator.run(bare_policy, session);

  abr::Festive observed_policy;
  SessionTimeline timeline;
  const auto observed = simulator.run(observed_policy, session, &timeline);

  ASSERT_EQ(bare.tasks.size(), observed.tasks.size());
  EXPECT_EQ(bare.startup_delay_s, observed.startup_delay_s);
  EXPECT_EQ(bare.total_rebuffer_s, observed.total_rebuffer_s);
  EXPECT_EQ(bare.session_end_s, observed.session_end_s);
  EXPECT_EQ(bare.switch_count, observed.switch_count);
  for (std::size_t i = 0; i < bare.tasks.size(); ++i) {
    EXPECT_EQ(bare.tasks[i].level, observed.tasks[i].level);
    EXPECT_EQ(bare.tasks[i].download_end_s, observed.tasks[i].download_end_s);
    EXPECT_EQ(bare.tasks[i].throughput_mbps, observed.tasks[i].throughput_mbps);
  }
  EXPECT_FALSE(timeline.events().empty());
}

TEST(SessionEngineTest, FaultFreeEventOrdering) {
  const auto manifest = make_manifest(60.0, 2.0);
  const auto session = make_session(60.0, 8.0);
  const PlayerSimulator simulator(manifest);
  abr::Bba policy(5.0, 30.0);
  SessionTimeline timeline;
  const auto result = simulator.run(policy, session, &timeline);

  const auto& events = timeline.events();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front().type, SessionEventType::kSessionStart);
  EXPECT_EQ(events.back().type, SessionEventType::kSessionEnd);

  // No drain (or stall) event before startup: playback cannot consume the
  // buffer before it begins.
  const std::size_t startup = first_index(timeline, SessionEventType::kStartup);
  ASSERT_NE(startup, kNoIndex);
  const std::size_t first_drain =
      first_index(timeline, SessionEventType::kBufferDrain);
  if (first_drain != kNoIndex) {
    EXPECT_GT(first_drain, startup);
  }
  const std::size_t first_stall = first_index(timeline, SessionEventType::kStall);
  if (first_stall != kNoIndex) {
    EXPECT_GT(first_stall, startup);
  }

  // Deadline / failure / backoff / fault events exist only on fault runs.
  EXPECT_EQ(timeline.count(SessionEventType::kAttemptDeadline), 0U);
  EXPECT_EQ(timeline.count(SessionEventType::kAttemptFailure), 0U);
  EXPECT_EQ(timeline.count(SessionEventType::kBackoffExpiry), 0U);
  EXPECT_EQ(timeline.count(SessionEventType::kFaultTransition), 0U);

  // One request and one completion per segment.
  EXPECT_EQ(timeline.count(SessionEventType::kRequestIssued),
            manifest.num_segments());
  EXPECT_EQ(timeline.count(SessionEventType::kDownloadComplete),
            manifest.num_segments());
  EXPECT_EQ(result.tasks.size(), manifest.num_segments());
}

TEST(SessionEngineTest, FaultRunEmitsDeadlineAndTransitionEvents) {
  const auto manifest = make_manifest(120.0, 2.0);
  const auto session = make_session(120.0, 8.0);
  const PlayerSimulator simulator(manifest);
  net::FaultInjector faults(session.throughput_mbps, outage_spec(),
                            &session.signal_dbm);
  abr::FixedBitrate policy(7, "Mid");
  SessionTimeline timeline;
  const auto result = simulator.run(policy, session, faults, &timeline);

  // A 20 s outage against a 15 s deadline must produce deadline aborts,
  // retries with backoff, and two fault transitions (enter + leave).
  EXPECT_GT(result.total_retries, 0U);
  EXPECT_GT(timeline.count(SessionEventType::kAttemptDeadline), 0U);
  EXPECT_GT(timeline.count(SessionEventType::kBackoffExpiry), 0U);
  EXPECT_EQ(timeline.count(SessionEventType::kFaultTransition), 2U);

  // Transitions carry the outage boundaries and enter/leave markers.
  double enter = -1.0;
  double leave = -1.0;
  for (const auto& event : timeline.events()) {
    if (event.type != SessionEventType::kFaultTransition) continue;
    if (event.value > 0.5) {
      enter = event.t_s;
    } else {
      leave = event.t_s;
    }
  }
  EXPECT_DOUBLE_EQ(enter, 20.0);
  EXPECT_DOUBLE_EQ(leave, 40.0);

  // Every deadline event lands exactly attempt_deadline_s after its request.
  const double deadline_s = simulator.config().resilience.attempt_deadline_s;
  const auto& events = timeline.events();
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].type != SessionEventType::kAttemptDeadline) continue;
    // Find the matching request (same segment + attempt, most recent).
    double request_t = -1.0;
    for (std::size_t j = 0; j < i; ++j) {
      if (events[j].type == SessionEventType::kRequestIssued &&
          events[j].segment == events[i].segment &&
          events[j].attempt == events[i].attempt) {
        request_t = events[j].t_s;
      }
    }
    ASSERT_GE(request_t, 0.0);
    EXPECT_NEAR(events[i].t_s - request_t, deadline_s, 1e-9);
  }

  // A link-fault run is the retry machine's single-leg case: no source
  // selection, breakers or hedging, and no event names a CDN source.
  EXPECT_EQ(timeline.count(SessionEventType::kSourceFailover), 0U);
  EXPECT_EQ(timeline.count(SessionEventType::kHedgeIssued), 0U);
  EXPECT_EQ(timeline.count(SessionEventType::kHedgeComplete), 0U);
  EXPECT_EQ(timeline.count(SessionEventType::kBreakerTransition), 0U);
  for (const auto& event : events) {
    EXPECT_EQ(event.source, kNoIndex) << to_string(event.type);
  }
  EXPECT_EQ(result.total_hedges, 0U);
  EXPECT_EQ(result.total_failovers, 0U);
  EXPECT_EQ(result.breaker_transitions, 0U);
  for (const auto& task : result.tasks) {
    EXPECT_EQ(task.source, 0U);
    EXPECT_EQ(task.hedges, 0U);
  }
}

TEST(SessionEngineTest, InactiveInjectorMatchesFaultFreeBitForBit) {
  const auto manifest = make_manifest(60.0, 2.0);
  const auto session = make_session(60.0, 10.0);
  const PlayerSimulator simulator(manifest);
  net::FaultInjector inactive(session.throughput_mbps, net::FaultSpec{});

  abr::Festive a;
  abr::Festive b;
  const auto plain = simulator.run(a, session);
  const auto injected = simulator.run(b, session, inactive);
  ASSERT_EQ(plain.tasks.size(), injected.tasks.size());
  EXPECT_EQ(plain.session_end_s, injected.session_end_s);
  EXPECT_EQ(plain.total_rebuffer_s, injected.total_rebuffer_s);
  for (std::size_t i = 0; i < plain.tasks.size(); ++i) {
    EXPECT_EQ(plain.tasks[i].level, injected.tasks[i].level);
    EXPECT_EQ(plain.tasks[i].download_end_s, injected.tasks[i].download_end_s);
  }
}

TEST(SessionEngineTest, SteppedTimelineOrderingAndJoins) {
  const auto manifest = make_manifest(40.0, 2.0);
  const auto session = make_session(40.0, 20.0);
  // Level 13 (5.8 Mbps) segments take ~0.6 s on the 20 Mbps link, so every
  // download spans several 50 ms steps and emits progress events.
  abr::FixedBitrate early(13, "Early");
  abr::FixedBitrate late(13, "Late");
  MultiClientSimulator simulator(session.throughput_mbps);
  std::vector<ClientSetup> clients = {{&manifest, &early, &session, 0.0},
                                      {&manifest, &late, &session, 12.0}};
  SessionTimeline timeline;
  const auto results = simulator.run(clients, &timeline);
  ASSERT_EQ(results.size(), 2U);

  // One join per client, at (or on the step after) its join time.
  EXPECT_EQ(timeline.count(SessionEventType::kClientJoin), 2U);
  double join0 = -1.0;
  double join1 = -1.0;
  for (const auto& event : timeline.events()) {
    if (event.type != SessionEventType::kClientJoin) continue;
    if (event.client == 0) join0 = event.t_s;
    if (event.client == 1) join1 = event.t_s;
  }
  EXPECT_DOUBLE_EQ(join0, 0.0);
  EXPECT_GE(join1, 12.0);
  EXPECT_LT(join1, 12.0 + 2.0 * simulator.config().step_s);

  // Per-client: no stall event before that client's startup event, and the
  // first request never precedes the join.
  for (std::size_t c = 0; c < 2; ++c) {
    bool started = false;
    bool joined = false;
    for (const auto& event : timeline.events()) {
      if (event.client != c) continue;
      if (event.type == SessionEventType::kClientJoin) joined = true;
      if (event.type == SessionEventType::kStartup) started = true;
      if (event.type == SessionEventType::kRequestIssued) {
        EXPECT_TRUE(joined);
      }
      if (event.type == SessionEventType::kStall) {
        EXPECT_TRUE(started);
      }
    }
  }
  // Stepped runs emit progress events for multi-step downloads.
  EXPECT_GT(timeline.count(SessionEventType::kDownloadProgress), 0U);
}

TEST(SessionTimelineTest, CsvAndJsonRoundTrip) {
  const auto manifest = make_manifest(20.0, 2.0);
  const auto session = make_session(20.0, 10.0);
  const PlayerSimulator simulator(manifest);
  abr::FixedBitrate policy(3, "Fixed");
  SessionTimeline timeline;
  simulator.run(policy, session, &timeline);
  ASSERT_FALSE(timeline.events().empty());

  // CSV: header + one line per event; event names match to_string().
  std::ostringstream csv;
  timeline.write_csv(csv);
  std::istringstream csv_in(csv.str());
  std::string line;
  ASSERT_TRUE(std::getline(csv_in, line));
  EXPECT_EQ(line, "t_s,client,event,segment,attempt,level,source,buffer_s,value");
  std::size_t rows = 0;
  while (std::getline(csv_in, line)) {
    if (!line.empty()) ++rows;
  }
  EXPECT_EQ(rows, timeline.events().size());
  EXPECT_NE(csv.str().find("session_start"), std::string::npos);
  EXPECT_NE(csv.str().find("download_complete"), std::string::npos);
  EXPECT_NE(csv.str().find("session_end"), std::string::npos);

  // JSON: structurally balanced, one object per event.
  std::ostringstream json;
  timeline.write_json(json);
  const std::string text = json.str();
  std::size_t objects = 0;
  for (std::size_t pos = text.find("{\"t_s\""); pos != std::string::npos;
       pos = text.find("{\"t_s\"", pos + 1)) {
    ++objects;
  }
  EXPECT_EQ(objects, timeline.events().size());

  // File variants write and reload.
  const auto dir = ::testing::TempDir();
  const std::string csv_path = dir + "session_timeline_test.csv";
  timeline.write_csv(csv_path);
  std::ifstream reloaded(csv_path);
  ASSERT_TRUE(reloaded.good());
  std::getline(reloaded, line);
  EXPECT_EQ(line, "t_s,client,event,segment,attempt,level,source,buffer_s,value");
  std::remove(csv_path.c_str());
}

TEST(SessionTimelineTest, CountAndClear) {
  SessionTimeline timeline;
  SessionEvent event;
  event.type = SessionEventType::kStall;
  timeline.on_event(event);
  timeline.on_event(event);
  event.type = SessionEventType::kStartup;
  timeline.on_event(event);
  EXPECT_EQ(timeline.count(SessionEventType::kStall), 2U);
  EXPECT_EQ(timeline.count(SessionEventType::kStartup), 1U);
  EXPECT_EQ(timeline.count(SessionEventType::kAttemptDeadline), 0U);
  timeline.clear();
  EXPECT_TRUE(timeline.events().empty());
}

TEST(SessionEventTest, ToStringIsStable) {
  EXPECT_STREQ(to_string(SessionEventType::kSessionStart), "session_start");
  EXPECT_STREQ(to_string(SessionEventType::kAttemptDeadline), "attempt_deadline");
  EXPECT_STREQ(to_string(SessionEventType::kFaultTransition), "fault_transition");
  EXPECT_STREQ(to_string(SessionEventType::kSessionEnd), "session_end");
}

// --- shared vibration tracks -------------------------------------------------

/// Every field of a result, doubles as %a, so equal dumps mean equal bits.
std::string hex_dump(const PlaybackResult& r) {
  std::ostringstream out;
  const auto hex = [&out](double x) {
    char buffer[40];
    std::snprintf(buffer, sizeof buffer, "%a ", x);
    out << buffer;
  };
  hex(r.startup_delay_s);
  hex(r.total_rebuffer_s);
  hex(r.session_end_s);
  hex(r.total_wasted_mb);
  hex(r.total_backoff_s);
  out << r.rebuffer_events << ' ' << r.switch_count << ' ' << r.total_retries << ' '
      << r.abandoned_segments << ' ' << r.total_hedges << ' ' << r.total_failovers
      << ' ' << r.breaker_transitions << ' ' << r.cell_handoffs << '\n';
  for (const TaskRecord& t : r.tasks) {
    out << t.segment_index << ' ' << t.level << ' ' << t.startup << ' ' << t.retries
        << ' ' << t.abandoned << ' ' << t.source << ' ' << t.hedges << ' ';
    for (const double x : {t.bitrate_mbps, t.size_mb, t.duration_s, t.download_start_s,
                           t.download_end_s, t.throughput_mbps, t.signal_dbm,
                           t.vibration, t.perceived_vibration, t.buffer_before_s,
                           t.rebuffer_s, t.wasted_mb, t.wasted_download_s,
                           t.wasted_signal_dbm, t.backoff_s}) {
      hex(x);
    }
    out << '\n';
  }
  return out.str();
}

/// Result dump plus timeline CSV of one replay.
std::string replay_dump(
    const std::function<PlaybackResult(SessionObserver*)>& replay) {
  SessionTimeline timeline;
  const PlaybackResult result = replay(&timeline);
  std::ostringstream csv;
  timeline.write_csv(csv);
  return hex_dump(result) + csv.str();
}

TEST(VibrationTrackEngineTest, SharedTrackIsBitIdenticalToAnOwnedOne) {
  // The five evaluation algorithms over one vibrating session, each replayed
  // with the engine building its own track and with one shared track; plus
  // link and sensor faults together on the engine.
  const auto manifest = make_manifest(90.0, 2.0);
  const auto session = make_step_session(90.0, 9.0, 2.0, 40.0, -100.0, 4.5);
  PlayerConfig config;
  config.vibration.window_s = 3.0;
  const PlayerSimulator simulator(manifest, config);
  const sensors::VibrationTrack track(session.accel, config.vibration);

  const core::Objective objective{qoe::QoeModel{}, power::PowerModel{}};
  abr::FixedBitrate youtube;
  abr::Festive festive;
  abr::Bba bba(5.0, config.buffer_threshold_s);
  core::OnlineBitrateSelector ours(objective);
  core::PlannedPolicy optimal(core::OptimalPlanner(objective).plan(
      core::build_task_environments(manifest, session, track)));
  for (AbrPolicy* policy :
       std::initializer_list<AbrPolicy*>{&youtube, &festive, &bba, &ours, &optimal}) {
    SCOPED_TRACE(policy->name());
    const std::string owned = replay_dump([&](SessionObserver* observer) {
      return simulator.run(*policy, session, observer);
    });
    const std::string shared = replay_dump([&](SessionObserver* observer) {
      return simulator.run(*policy, session, observer, &track);
    });
    EXPECT_EQ(owned, shared);
  }

  const net::FaultInjector faults(session.throughput_mbps, outage_spec());
  sensors::SensorFaultSpec sensor_spec;
  sensor_spec.accel_episode_rate_per_min = 4.0;
  const sensors::SensorFaultInjector sensor_faults(
      session.accel, trace::signal_samples(session.signal_dbm), sensor_spec);
  const FaultLinkModel link(faults);
  const SessionEngine engine(SessionEngineConfig{.player = config});
  const auto replay_combined = [&](const sensors::VibrationTrack* vibration) {
    return replay_dump([&](SessionObserver* observer) {
      SessionClient client;
      client.manifest = &manifest;
      client.policy = &ours;
      client.context = &session;
      client.sensor_faults = &sensor_faults;
      client.vibration_track = vibration;
      return engine.run(std::span<const SessionClient>(&client, 1), link, observer)
          .front();
    });
  };
  EXPECT_EQ(replay_combined(nullptr), replay_combined(&track));
}

TEST(VibrationTrackEngineTest, ForeignTrackThrows) {
  const auto manifest = make_manifest(20.0, 2.0);
  const auto session = make_session(20.0, 10.0, -90.0, 3.0);
  const auto twin = session;  // equal samples, different storage
  const PlayerSimulator simulator(manifest);
  abr::Bba bba;

  const sensors::VibrationTrack other_session(twin.accel);
  EXPECT_THROW(simulator.run(bba, session, nullptr, &other_session),
               std::invalid_argument);
  sensors::VibrationConfig other_config;
  other_config.window_s = 2.0;
  const sensors::VibrationTrack other_estimator(session.accel, other_config);
  EXPECT_THROW(simulator.run(bba, session, nullptr, &other_estimator),
               std::invalid_argument);
  const net::FaultInjector faults(session.throughput_mbps, outage_spec());
  EXPECT_THROW(simulator.run(bba, session, faults, nullptr, &other_estimator),
               std::invalid_argument);

  // Stepped links check every client's track the same way.
  const SharedLinkModel link(session.throughput_mbps);
  const SessionEngine engine{SessionEngineConfig{}};
  SessionClient client;
  client.manifest = &manifest;
  client.policy = &bba;
  client.context = &session;
  client.vibration_track = &other_session;
  EXPECT_THROW(engine.run(std::span<const SessionClient>(&client, 1), link),
               std::invalid_argument);

  const sensors::VibrationTrack own(session.accel);
  EXPECT_NO_THROW(simulator.run(bba, session, nullptr, &own));
  client.vibration_track = &own;
  EXPECT_NO_THROW(engine.run(std::span<const SessionClient>(&client, 1), link));
}

}  // namespace
}  // namespace eacs::player
