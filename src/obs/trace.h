// Structured, deterministic event tracing with causal span IDs.
//
// A span is one logical operation (an RPC, a message in flight, a whole
// schedule-and-enact run); every span records the span that caused it,
// so a negotiation's full tree -- schedule -> query -> reserve xN ->
// cancel/re-reserve -> enact -- is reconstructable from the parent
// links.  The kernel threads the "current span" through its async-RPC
// path (see SimKernel::Send / AsyncCall), so components get causal
// attribution without passing IDs around by hand.  The trace holds
// spans only: decisions (a slot granted, a retry, a variant applied)
// are recorded once, in the audit log (obs/audit.h).
//
// Determinism: span IDs are minted sequentially and timestamps are
// simulated time, so two runs with the same seed produce byte-identical
// exports.  A trace file therefore doubles as a determinism-regression
// oracle.
//
// Cost model: tracing is off by default.  `enabled()` is an inline flag
// test; every recording site guards with it, so a disabled sink records
// nothing and allocates nothing in the hot path.
//
// Exports: Chrome trace_event JSON (load in chrome://tracing or
// https://ui.perfetto.dev) and JSONL (one event per line, for diffing
// and ad-hoc analysis).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/sim_time.h"

namespace legion::obs {

using SpanId = std::uint64_t;
inline constexpr SpanId kNoSpan = 0;

// One key/value annotation on an event.  Values are stored as strings
// and exported as JSON strings.
struct TraceArg {
  std::string key;
  std::string value;
};
using TraceArgs = std::vector<TraceArg>;

struct TraceEvent {
  enum class Phase : std::uint8_t { kBegin, kEnd };
  Phase phase;
  SimTime ts;
  SpanId span = kNoSpan;    // the span this event belongs to / creates
  SpanId parent = kNoSpan;  // causal parent span (kNoSpan = root)
  std::string name;
  const char* category = "";  // static string
  TraceArgs args;
};

class TraceLog {
 public:
  bool enabled() const { return enabled_; }
  void Enable() { enabled_ = true; }
  void Disable() { enabled_ = false; }

  // The span currently being executed on behalf of; new spans default to
  // being its children.  Maintained by the kernel across async hops.
  SpanId current() const { return current_; }
  void SetCurrent(SpanId span) { current_ = span; }

  // Recording.  All no-ops when disabled; call sites that build names or
  // args should guard with enabled() to avoid the allocations too.
  SpanId BeginSpan(SimTime ts, std::string name, const char* category,
                   SpanId parent, TraceArgs args = {});
  void EndSpan(SimTime ts, SpanId span, TraceArgs args = {});

  const std::vector<TraceEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  void Clear();

  // Chrome trace_event format ("async" b/e events keyed by span id).
  std::string ToChromeJson() const;
  // One JSON object per line.
  std::string ToJsonl() const;

 private:
  bool enabled_ = false;
  SpanId next_span_ = 1;
  SpanId current_ = kNoSpan;
  std::vector<TraceEvent> events_;
  // Name/category of spans begun but not yet ended, so EndSpan can emit
  // the matching async-end record Chrome requires.
  std::unordered_map<SpanId, std::pair<std::string, const char*>> open_;
};

// RAII: temporarily switches the log's current span (restores on exit).
class ScopedCurrent {
 public:
  ScopedCurrent(TraceLog& log, SpanId span) : log_(log), saved_(log.current()) {
    log_.SetCurrent(span);
  }
  ~ScopedCurrent() { log_.SetCurrent(saved_); }
  ScopedCurrent(const ScopedCurrent&) = delete;
  ScopedCurrent& operator=(const ScopedCurrent&) = delete;

 private:
  TraceLog& log_;
  SpanId saved_;
};

}  // namespace legion::obs
