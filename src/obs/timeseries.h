// Time-series telemetry: windowed samples of selected registry metrics.
//
// The MetricsRegistry answers "how much happened, total"; production
// debugging needs "when did it happen, and how fast".  The recorder
// samples watched cells once per sim-time second into bounded ring
// buffers, computing per-window deltas and rates, so queue-depth
// timelines, RPC-rate ramps, and breaker-open bursts become visible
// instead of being averaged into an end-of-run total.
//
// Clocking: the recorder never schedules kernel events.  SimKernel
// flushes due sample points from its run loop (see RunUntil), so an
// enabled recorder observes the virtual timeline without perturbing it
// -- event counts, message counts, and placements are byte-identical
// with the recorder on or off.  Sample timestamps are exact period
// multiples; a window with no intervening events still samples on time.
//
// Determinism: timestamps are sim-time and watched values are
// deterministic registry cells, so two same-seed runs export
// byte-identical timelines.  Exports: a deterministic JSON timeline
// (series sorted by name) and Chrome trace_event counter tracks
// ("ph":"C"; load alongside a TraceLog export to see rates under the
// causal spans).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "base/sim_time.h"
#include "obs/metrics.h"

namespace legion::obs {

struct TimeSeriesSample {
  SimTime ts;    // window end (inclusive)
  double value;  // sampled value at ts
  double delta;  // value - previous sample (counter resets clamp to value)
  double rate;   // delta per second of window
};

class TimeSeriesRecorder {
 public:
  // Sim-time distance between samples.
  static constexpr Duration kSamplePeriod = Duration::Seconds(1);
  // Ring capacity per series; the oldest window falls off when full.
  static constexpr std::size_t kRingCapacity = 1024;

  // ---- Series registration ----------------------------------------------
  // Watch a registry cell under `series` (any stable name; the registry's
  // CellKey is the conventional choice).  Cumulative series (counters)
  // clamp their delta to the new value when the cell was reset
  // mid-window; instantaneous series (gauges) report signed deltas.
  void WatchCounter(std::string series, const Counter* cell);
  void WatchGauge(std::string series, const Gauge* cell);
  // Arbitrary sampler, e.g. a queue-depth probe.
  void Watch(std::string series, std::function<double()> sampler,
             bool cumulative);

  // ---- Clocking ---------------------------------------------------------
  // Arms the recorder: the first window ends at now + kSamplePeriod.
  void Start(SimTime now);
  void Stop() { active_ = false; }
  bool active() const { return active_; }

  // Flushes every due sample point strictly before `t`.  Called by the
  // kernel with the next event's timestamp, so a window closes only once
  // simulated time moves past its end -- events at exactly the boundary
  // land inside the window.  Inline fast path: one branch when idle.
  void MaybeSample(SimTime t) {
    while (active_ && next_sample_ < t) {
      SampleAt(next_sample_);
      next_sample_ = next_sample_ + kSamplePeriod;
    }
  }
  // Closes windows up to and including `t` (end of a bounded run).
  void FlushThrough(SimTime t) { MaybeSample(t + Duration::Micros(1)); }

  // Takes one sample of every series at `ts` (normally driven by
  // MaybeSample; callable directly for manual windows in tests).
  void SampleAt(SimTime ts);

  // ---- Inspection / export ----------------------------------------------
  std::size_t series_count() const { return series_.size(); }
  // Samples of one series; empty when the name is unknown.
  const std::deque<TimeSeriesSample>& samples(const std::string& series) const;

  // {"sample_period_us":...,"series":{name:[{"t":..,"v":..,"d":..,"r":..}]}}
  std::string ToJson() const;
  // Chrome trace_event counter tracks, mergeable with TraceLog exports.
  std::string ToChromeJson() const;

  void Clear();

 private:
  struct Series {
    std::function<double()> sampler;
    bool cumulative = false;
    double last = 0.0;
    bool has_last = false;
    std::deque<TimeSeriesSample> samples;
  };

  bool active_ = false;
  SimTime next_sample_;
  std::map<std::string, Series> series_;  // sorted => deterministic export
};

}  // namespace legion::obs
