#include "obs/timeseries.h"

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace legion::obs {
namespace {

SimTime At(std::int64_t secs) { return SimTime::Zero() + Duration::Seconds(secs); }

TEST(TimeSeriesRecorder, CounterDeltasAndRates) {
  Counter c;
  TimeSeriesRecorder recorder;
  recorder.WatchCounter("c", &c);
  recorder.Start(SimTime::Zero());

  c.Add(10);
  recorder.SampleAt(At(1));
  c.Add(5);
  recorder.SampleAt(At(2));
  recorder.SampleAt(At(3));  // idle window

  const auto& samples = recorder.samples("c");
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].ts, At(1));
  EXPECT_DOUBLE_EQ(samples[0].value, 10.0);
  EXPECT_DOUBLE_EQ(samples[0].delta, 10.0);  // first window: delta = value
  EXPECT_DOUBLE_EQ(samples[0].rate, 10.0);
  EXPECT_DOUBLE_EQ(samples[1].delta, 5.0);
  EXPECT_DOUBLE_EQ(samples[1].rate, 5.0);
  EXPECT_DOUBLE_EQ(samples[2].delta, 0.0);
  EXPECT_DOUBLE_EQ(samples[2].rate, 0.0);
}

TEST(TimeSeriesRecorder, CounterResetClampsDeltaToValue) {
  Counter c;
  TimeSeriesRecorder recorder;
  recorder.WatchCounter("c", &c);
  recorder.Start(SimTime::Zero());

  c.Add(100);
  recorder.SampleAt(At(1));
  c.Reset();   // mid-window reset (e.g. MetricsRegistry::Reset)
  c.Add(3);
  recorder.SampleAt(At(2));

  const auto& samples = recorder.samples("c");
  ASSERT_EQ(samples.size(), 2u);
  // A cumulative series must never report a negative window; the delta
  // clamps to the observed value (everything since the reset).
  EXPECT_DOUBLE_EQ(samples[1].value, 3.0);
  EXPECT_DOUBLE_EQ(samples[1].delta, 3.0);
}

TEST(TimeSeriesRecorder, GaugeReportsSignedDeltas) {
  Gauge g;
  TimeSeriesRecorder recorder;
  recorder.WatchGauge("g", &g);
  recorder.Start(SimTime::Zero());

  g.Set(5.0);
  recorder.SampleAt(At(1));
  g.Set(2.0);
  recorder.SampleAt(At(2));

  const auto& samples = recorder.samples("g");
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_DOUBLE_EQ(samples[1].delta, -3.0);  // gauges may go down
  EXPECT_DOUBLE_EQ(samples[1].rate, -3.0);
}

TEST(TimeSeriesRecorder, RingCapacityDropsOldestWindow) {
  Counter c;
  RecorderOptions options;
  options.ring_capacity = 3;
  TimeSeriesRecorder recorder(options);
  recorder.WatchCounter("c", &c);
  recorder.Start(SimTime::Zero());

  for (int i = 1; i <= 5; ++i) {
    c.Add(1);
    recorder.SampleAt(At(i));
  }
  const auto& samples = recorder.samples("c");
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples.front().ts, At(3));  // windows 1 and 2 fell off
  EXPECT_EQ(samples.back().ts, At(5));
  // Deltas stay correct across the drop: last_ is per-series state, not
  // derived from the ring.
  EXPECT_DOUBLE_EQ(samples.back().delta, 1.0);
}

TEST(TimeSeriesRecorder, MaybeSampleClosesWindowsStrictlyBefore) {
  Counter c;
  TimeSeriesRecorder recorder;  // period = 1s
  recorder.WatchCounter("c", &c);
  recorder.Start(SimTime::Zero());

  // An event AT the window boundary belongs inside the window: the
  // kernel calls MaybeSample(next_event_ts) before running the event, so
  // t == boundary must NOT close it yet.
  recorder.MaybeSample(At(1));
  EXPECT_EQ(recorder.samples("c").size(), 0u);
  c.Add(7);  // the boundary event
  recorder.MaybeSample(At(1) + Duration::Micros(1));
  ASSERT_EQ(recorder.samples("c").size(), 1u);
  EXPECT_DOUBLE_EQ(recorder.samples("c")[0].value, 7.0);

  // A jump over several periods back-fills every due window on time.
  recorder.MaybeSample(At(4) + Duration::Micros(1));
  ASSERT_EQ(recorder.samples("c").size(), 4u);
  EXPECT_EQ(recorder.samples("c")[3].ts, At(4));
  EXPECT_DOUBLE_EQ(recorder.samples("c")[3].delta, 0.0);
}

TEST(TimeSeriesRecorder, FlushThroughClosesInclusiveBoundary) {
  Counter c;
  TimeSeriesRecorder recorder;
  recorder.WatchCounter("c", &c);
  recorder.Start(SimTime::Zero());
  recorder.FlushThrough(At(2));  // end of a bounded run at exactly t=2
  EXPECT_EQ(recorder.samples("c").size(), 2u);
}

TEST(TimeSeriesRecorder, InactiveAndStoppedRecorderSamplesNothing) {
  Counter c;
  TimeSeriesRecorder recorder;
  recorder.WatchCounter("c", &c);
  recorder.MaybeSample(At(10));  // never started
  EXPECT_EQ(recorder.samples("c").size(), 0u);

  recorder.Start(SimTime::Zero());
  recorder.Stop();
  recorder.MaybeSample(At(10));
  EXPECT_EQ(recorder.samples("c").size(), 0u);
  EXPECT_FALSE(recorder.active());
}

TEST(TimeSeriesRecorder, CustomSamplerWatchesArbitraryState) {
  double depth = 0.0;
  TimeSeriesRecorder recorder;
  recorder.Watch("queue_depth", [&depth] { return depth; },
                 /*cumulative=*/false);
  recorder.Start(SimTime::Zero());
  depth = 12.0;
  recorder.SampleAt(At(1));
  depth = 4.0;
  recorder.SampleAt(At(2));
  const auto& samples = recorder.samples("queue_depth");
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_DOUBLE_EQ(samples[1].value, 4.0);
  EXPECT_DOUBLE_EQ(samples[1].delta, -8.0);
}

TEST(TimeSeriesRecorder, JsonExportIsDeterministicAndSorted) {
  Counter a, z;
  TimeSeriesRecorder recorder;
  // Register out of order; the export must sort by series name.
  recorder.WatchCounter("zeta", &z);
  recorder.WatchCounter("alpha", &a);
  recorder.Start(SimTime::Zero());
  a.Add(1);
  z.Add(2);
  recorder.SampleAt(At(1));

  const std::string json = recorder.ToJson();
  EXPECT_EQ(json, recorder.ToJson());  // stable across exports
  EXPECT_LT(json.find("\"alpha\""), json.find("\"zeta\""));
  EXPECT_NE(json.find("\"sample_period_us\""), std::string::npos);

  const std::string chrome = recorder.ToChromeJson();
  EXPECT_EQ(chrome, recorder.ToChromeJson());
  EXPECT_NE(chrome.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(chrome.find("\"alpha\""), std::string::npos);
}

TEST(TimeSeriesRecorder, ClearDropsSamplesButKeepsSeries) {
  Counter c;
  TimeSeriesRecorder recorder;
  recorder.WatchCounter("c", &c);
  recorder.Start(SimTime::Zero());
  c.Add(1);
  recorder.SampleAt(At(1));
  recorder.Clear();
  EXPECT_EQ(recorder.samples("c").size(), 0u);
  EXPECT_EQ(recorder.series_count(), 1u);
  // After Clear the next window's delta is value again (no stale last_).
  c.Add(2);
  recorder.Start(At(1));
  recorder.SampleAt(At(2));
  ASSERT_EQ(recorder.samples("c").size(), 1u);
  EXPECT_DOUBLE_EQ(recorder.samples("c")[0].delta, 3.0);
}

}  // namespace
}  // namespace legion::obs
