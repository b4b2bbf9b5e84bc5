#include "obs/timeseries.h"

#include "obs/json.h"

namespace legion::obs {

void TimeSeriesRecorder::WatchCounter(std::string series,
                                      const Counter* cell) {
  Watch(std::move(series),
        [cell] { return static_cast<double>(cell->value()); },
        /*cumulative=*/true);
}

void TimeSeriesRecorder::WatchGauge(std::string series, const Gauge* cell) {
  Watch(std::move(series), [cell] { return cell->value(); },
        /*cumulative=*/false);
}

void TimeSeriesRecorder::Watch(std::string series,
                               std::function<double()> sampler,
                               bool cumulative) {
  Series& s = series_[std::move(series)];
  s.sampler = std::move(sampler);
  s.cumulative = cumulative;
}

void TimeSeriesRecorder::Start(SimTime now) {
  active_ = true;
  next_sample_ = now + kSamplePeriod;
}

void TimeSeriesRecorder::SampleAt(SimTime ts) {
  for (auto& [name, s] : series_) {
    const double value = s.sampler();
    TimeSeriesSample sample;
    sample.ts = ts;
    sample.value = value;
    if (!s.has_last) {
      sample.delta = value;
    } else if (s.cumulative && value < s.last) {
      // The cell was reset mid-window (MetricsRegistry::Reset): the
      // window's growth is everything accumulated since the reset, not a
      // negative jump.
      sample.delta = value;
    } else {
      sample.delta = value - s.last;
    }
    sample.rate = sample.delta / kSamplePeriod.seconds();
    s.last = value;
    s.has_last = true;
    s.samples.push_back(sample);
    if (s.samples.size() > kRingCapacity) s.samples.pop_front();
  }
}

const std::deque<TimeSeriesSample>& TimeSeriesRecorder::samples(
    const std::string& series) const {
  static const std::deque<TimeSeriesSample> kEmpty;
  auto it = series_.find(series);
  return it == series_.end() ? kEmpty : it->second.samples;
}

std::string TimeSeriesRecorder::ToJson() const {
  std::string out = "{\"sample_period_us\":" +
                    JsonNumber(kSamplePeriod.micros()) +
                    ",\"ring_capacity\":" +
                    JsonNumber(static_cast<std::uint64_t>(kRingCapacity)) +
                    ",\"series\":{";
  bool first_series = true;
  for (const auto& [name, s] : series_) {
    if (!first_series) out += ',';
    first_series = false;
    out += JsonString(name) + ":[";
    for (std::size_t i = 0; i < s.samples.size(); ++i) {
      const TimeSeriesSample& sample = s.samples[i];
      if (i != 0) out += ',';
      out += "{\"t\":" + JsonNumber(sample.ts.micros()) +
             ",\"v\":" + JsonNumber(sample.value) +
             ",\"d\":" + JsonNumber(sample.delta) +
             ",\"r\":" + JsonNumber(sample.rate) + '}';
    }
    out += ']';
  }
  out += "}}\n";
  return out;
}

std::string TimeSeriesRecorder::ToChromeJson() const {
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  for (const auto& [name, s] : series_) {
    for (const TimeSeriesSample& sample : s.samples) {
      if (!first) out += ",\n";
      first = false;
      out += "{\"name\":" + JsonString(name) +
             ",\"ph\":\"C\",\"pid\":1,\"tid\":1,\"ts\":" +
             JsonNumber(sample.ts.micros()) + ",\"args\":{\"value\":" +
             JsonNumber(sample.value) + ",\"rate\":" +
             JsonNumber(sample.rate) + "}}";
    }
  }
  out += "\n]}\n";
  return out;
}

void TimeSeriesRecorder::Clear() {
  for (auto& [name, s] : series_) {
    s.samples.clear();
    s.last = 0.0;
    s.has_last = false;
  }
}

}  // namespace legion::obs
