// The metrics registry: labeled counters, gauges, and fixed-bucket
// histograms, cheap enough to stay on in the simulation hot path.
//
// Usage pattern: a component resolves its cells once (name + labels ->
// stable pointer) and the hot path touches only the cell -- one relaxed
// atomic op per update, no lookups, no locks.  Registration and
// Snapshot() take a mutex; updates never do.  Cells are atomic, so the
// registry stays safe to use from any thread even though the simulation
// itself is single-threaded (DESIGN.md §3).
//
// Snapshot() serializes the whole registry to JSON with keys sorted, so
// snapshots of equal state are byte-identical.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace legion::obs {

// Label set for one metric cell, e.g. {{"component", "enactor"}}.
// Order does not matter; labels are canonicalized (sorted by key) when
// the cell is resolved.
using Labels = std::vector<std::pair<std::string, std::string>>;

namespace detail {
// Lock-free add for atomic<double> (fetch_add on floating atomics is
// C++20; a CAS loop keeps us portable across standard libraries).
inline void AtomicAdd(std::atomic<double>& target, double delta) {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}
}  // namespace detail

// Monotonic event count.
class Counter {
 public:
  void Add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// Last-write-wins instantaneous value.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta) { detail::AtomicAdd(value_, delta); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Fixed-bucket histogram: `bounds` are ascending inclusive upper bounds;
// an implicit +inf bucket catches the rest.  Bucket layout is fixed at
// registration so Observe() is a short linear scan plus two atomic adds.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double v);

  const std::vector<double>& bounds() const { return bounds_; }
  // i in [0, bounds().size()]; the last index is the +inf bucket.
  std::uint64_t bucket_count(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
  }
  void Reset();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<double> sum_{0.0};
  std::atomic<std::uint64_t> count_{0};
};

// Exponential latency buckets in microseconds: 100us .. 1000s.
const std::vector<double>& LatencyBucketsUs();

// A point-in-time copy of every metric, for programmatic inspection.
struct HistogramValue {
  std::vector<double> bounds;        // upper bounds, +inf implicit
  std::vector<std::uint64_t> buckets;  // bounds.size() + 1 entries
  std::uint64_t count = 0;
  double sum = 0.0;
};
struct MetricsSnapshot {
  // Keys are the canonical "name{k=v,...}" cell identifiers, sorted.
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramValue> histograms;

  std::string ToJson() const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Resolve-or-create.  The returned pointer is stable for the registry's
  // lifetime; equal (name, labels) -- in any label order -- return the
  // same cell.  Each kind has its own namespace: one name requested as a
  // counter and as a gauge yields two independent cells, each exported
  // under its own kind.  A histogram keeps the bounds of its first
  // registration.
  Counter* GetCounter(std::string_view name, const Labels& labels = {});
  Gauge* GetGauge(std::string_view name, const Labels& labels = {});
  Histogram* GetHistogram(std::string_view name, const Labels& labels,
                          std::vector<double> bounds);
  Histogram* GetHistogram(std::string_view name,
                          std::vector<double> bounds) {
    return GetHistogram(name, {}, std::move(bounds));
  }

  MetricsSnapshot Snapshot() const;
  std::string SnapshotJson() const { return Snapshot().ToJson(); }

  // Zeroes every registered cell (cells stay registered and pointers
  // stay valid).
  void Reset();

  // Canonical cell identifier: name{k1=v1,k2=v2} with keys sorted.
  static std::string CellKey(std::string_view name, const Labels& labels);

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace legion::obs
