#include "eacs/net/fault_injector.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace eacs::net {
namespace {

trace::TimeSeries constant_rate(double mbps, double duration = 300.0) {
  trace::TimeSeries series;
  series.append(0.0, mbps);
  series.append(duration, mbps);
  return series;
}

trace::TimeSeries constant_signal(double dbm, double duration = 300.0) {
  trace::TimeSeries series;
  series.append(0.0, dbm);
  series.append(duration, dbm);
  return series;
}

TEST(FaultInjectorTest, DefaultSpecIsStrictPassThrough) {
  const auto trace = constant_rate(8.0);
  const SegmentDownloader plain(trace);
  const FaultInjector injector(trace, FaultSpec{});

  EXPECT_FALSE(injector.active());
  EXPECT_TRUE(injector.outage_schedule().empty());
  EXPECT_FALSE(injector.in_outage(10.0));
  EXPECT_DOUBLE_EQ(injector.failure_probability(10.0), 0.0);

  // Bit-identical downloads at several offsets/sizes.
  for (const double start : {0.0, 1.5, 50.0, 299.0}) {
    for (const double size : {0.0, 4.0, 16.0, 123.4}) {
      const auto a = plain.download(start, size);
      const auto b = injector.downloader().download(start, size);
      EXPECT_EQ(a.start_s, b.start_s);
      EXPECT_EQ(a.end_s, b.end_s);
      EXPECT_EQ(a.size_megabits, b.size_megabits);
      EXPECT_EQ(a.mean_throughput_mbps, b.mean_throughput_mbps);

      const auto outcome = injector.attempt(3, 0, start, size);
      EXPECT_FALSE(outcome.failed);
      EXPECT_FALSE(outcome.crawling);
      EXPECT_EQ(outcome.result.end_s, a.end_s);
    }
  }
}

TEST(FaultInjectorTest, ScriptedOutageZeroesThroughput) {
  const auto trace = constant_rate(8.0);
  FaultSpec spec;
  spec.outages = {{10.0, 20.0}};
  const FaultInjector injector(trace, spec);

  EXPECT_TRUE(injector.active());
  ASSERT_EQ(injector.outage_schedule().size(), 1U);
  EXPECT_FALSE(injector.in_outage(9.99));
  EXPECT_TRUE(injector.in_outage(10.0));
  EXPECT_TRUE(injector.in_outage(19.99));
  EXPECT_FALSE(injector.in_outage(20.0));

  // Nothing moves inside the window.
  EXPECT_NEAR(injector.megabits_over(10.0, 20.0), 0.0, 1e-9);
  EXPECT_NEAR(injector.megabits_over(0.0, 30.0), 8.0 * 20.0, 1e-9);

  // A transfer straddling the window is extended by its full duration:
  // 32 megabits at 8 Mbps normally takes 4 s from t=8; with [10, 20) dead it
  // finishes at 8 + 4 + 10 = 22.
  const auto result = injector.downloader().download(8.0, 32.0);
  EXPECT_NEAR(result.end_s, 22.0, 1e-9);
}

TEST(FaultInjectorTest, OverlappingWindowsAreMerged) {
  const auto trace = constant_rate(8.0);
  FaultSpec spec;
  spec.outages = {{20.0, 22.0}, {5.0, 10.0}, {8.0, 15.0}};
  const FaultInjector injector(trace, spec);

  const auto& schedule = injector.outage_schedule();
  ASSERT_EQ(schedule.size(), 2U);
  EXPECT_DOUBLE_EQ(schedule[0].start_s, 5.0);
  EXPECT_DOUBLE_EQ(schedule[0].end_s, 15.0);
  EXPECT_DOUBLE_EQ(schedule[1].start_s, 20.0);
  EXPECT_DOUBLE_EQ(schedule[1].end_s, 22.0);
}

TEST(FaultInjectorTest, ValidatesSpec) {
  const auto trace = constant_rate(8.0);
  FaultSpec backwards;
  backwards.outages = {{10.0, 5.0}};
  EXPECT_THROW(FaultInjector(trace, backwards), std::invalid_argument);

  FaultSpec bad_prob;
  bad_prob.failure_prob = 1.5;
  EXPECT_THROW(FaultInjector(trace, bad_prob), std::invalid_argument);

  FaultSpec needs_signal;
  needs_signal.signal_failure_per_db = 0.01;
  EXPECT_THROW(FaultInjector(trace, needs_signal), std::invalid_argument);

  // Zero-width scripted windows are tolerated and dropped.
  FaultSpec zero_width;
  zero_width.outages = {{10.0, 10.0}};
  const FaultInjector injector(trace, zero_width);
  EXPECT_TRUE(injector.outage_schedule().empty());
}

TEST(FaultInjectorTest, RandomScheduleIsDeterministicInSeed) {
  const auto trace = constant_rate(8.0, 600.0);
  FaultSpec spec;
  spec.outage_rate_per_min = 2.0;
  spec.outage_mean_s = 5.0;
  spec.seed = 42;

  const FaultInjector a(trace, spec);
  const FaultInjector b(trace, spec);
  ASSERT_EQ(a.outage_schedule().size(), b.outage_schedule().size());
  EXPECT_GE(a.outage_schedule().size(), 1U);
  for (std::size_t i = 0; i < a.outage_schedule().size(); ++i) {
    EXPECT_EQ(a.outage_schedule()[i].start_s, b.outage_schedule()[i].start_s);
    EXPECT_EQ(a.outage_schedule()[i].end_s, b.outage_schedule()[i].end_s);
  }

  spec.seed = 43;
  const FaultInjector c(trace, spec);
  bool differs = c.outage_schedule().size() != a.outage_schedule().size();
  for (std::size_t i = 0; !differs && i < a.outage_schedule().size(); ++i) {
    differs = a.outage_schedule()[i].start_s != c.outage_schedule()[i].start_s;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultInjectorTest, ScheduleIsSortedAndDisjoint) {
  const auto trace = constant_rate(8.0, 600.0);
  FaultSpec spec;
  spec.outages = {{100.0, 110.0}};
  spec.outage_rate_per_min = 3.0;
  spec.outage_mean_s = 8.0;
  const FaultInjector injector(trace, spec);

  const auto& schedule = injector.outage_schedule();
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    EXPECT_LT(schedule[i].start_s, schedule[i].end_s);
    if (i > 0) {
      EXPECT_GT(schedule[i].start_s, schedule[i - 1].end_s);
    }
  }
}

TEST(FaultInjectorTest, SignalCouplingRaisesFailureProbability) {
  const auto trace = constant_rate(8.0);
  const auto weak = constant_signal(-120.0);
  const auto strong = constant_signal(-80.0);

  FaultSpec spec;
  spec.failure_prob = 0.05;
  spec.signal_failure_per_db = 0.01;
  spec.signal_threshold_dbm = -100.0;

  const FaultInjector on_weak(trace, spec, &weak);
  const FaultInjector on_strong(trace, spec, &strong);
  // 20 dB below threshold adds 0.2; above threshold adds nothing.
  EXPECT_NEAR(on_weak.failure_probability(50.0), 0.25, 1e-12);
  EXPECT_NEAR(on_strong.failure_probability(50.0), 0.05, 1e-12);
}

TEST(FaultInjectorTest, FailureProbabilityIsCappedBelowOne) {
  const auto trace = constant_rate(8.0);
  const auto dead = constant_signal(-160.0);
  FaultSpec spec;
  spec.failure_prob = 0.9;
  spec.signal_failure_per_db = 0.05;
  const FaultInjector injector(trace, spec, &dead);
  EXPECT_DOUBLE_EQ(injector.failure_probability(50.0), 0.95);
}

TEST(FaultInjectorTest, AttemptsAreDeterministicAndIndependent) {
  const auto trace = constant_rate(8.0);
  FaultSpec spec;
  spec.failure_prob = 0.5;
  spec.stall_prob = 0.2;
  spec.seed = 7;
  const FaultInjector a(trace, spec);
  const FaultInjector b(trace, spec);

  // Same (segment, attempt) on two instances, interleaved with unrelated
  // calls on `b`: outcomes must match bit-for-bit.
  for (std::size_t seg = 0; seg < 20; ++seg) {
    for (std::size_t att = 0; att < 3; ++att) {
      (void)b.attempt(seg + 100, att, 1.0, 4.0);  // unrelated draw
      const auto x = a.attempt(seg, att, 5.0, 16.0);
      const auto y = b.attempt(seg, att, 5.0, 16.0);
      EXPECT_EQ(x.failed, y.failed);
      EXPECT_EQ(x.crawling, y.crawling);
      EXPECT_EQ(x.fail_at_s, y.fail_at_s);
      EXPECT_EQ(x.fail_fraction, y.fail_fraction);
      EXPECT_EQ(x.result.end_s, y.result.end_s);
    }
  }
}

TEST(FaultInjectorTest, CertainFailureDiesMidTransfer) {
  const auto trace = constant_rate(8.0);
  FaultSpec spec;
  spec.failure_prob = 0.95;  // the cap; bernoulli(0.95) still mostly fires
  const FaultInjector injector(trace, spec);

  std::size_t failures = 0;
  for (std::size_t seg = 0; seg < 50; ++seg) {
    const auto outcome = injector.attempt(seg, 0, 10.0, 16.0);
    if (!outcome.failed) continue;
    ++failures;
    EXPECT_GE(outcome.fail_fraction, 0.05);
    EXPECT_LE(outcome.fail_fraction, 0.95);
    EXPECT_GT(outcome.fail_at_s, 10.0);
    EXPECT_LT(outcome.fail_at_s, outcome.result.end_s);
  }
  EXPECT_GT(failures, 30U);
}

TEST(FaultInjectorTest, SlowLorisCrawlsAtTokenRate) {
  const auto trace = constant_rate(8.0);
  FaultSpec spec;
  spec.stall_prob = 1.0;
  spec.stall_rate_mbps = 0.1;
  const FaultInjector injector(trace, spec);

  const auto outcome = injector.attempt(0, 0, 5.0, 2.0);
  EXPECT_TRUE(outcome.crawling);
  EXPECT_FALSE(outcome.failed);
  // 2 megabits at 0.1 Mbps = 20 s, regardless of the healthy 8 Mbps link.
  EXPECT_NEAR(outcome.result.end_s, 25.0, 1e-9);
  EXPECT_NEAR(outcome.result.mean_throughput_mbps, 0.1, 1e-12);
}

}  // namespace
}  // namespace eacs::net
