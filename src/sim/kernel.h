// The discrete-event simulation kernel.
//
// Every Legion object in the reproduction is an actor whose method
// invocations travel as messages through the NetworkModel.  The kernel
// owns the virtual clock and the event queue, routes messages, implements
// the asynchronous RPC pattern used throughout the RMI (Scheduler ->
// Collection queries, Enactor -> Host reservation calls, Class ->
// Host StartObject, Monitor outcalls), and counts messages, events and
// RPCs in its metrics registry for the benchmark harnesses.
//
// The kernel is deliberately single-threaded and deterministic: given the
// same seed and workload, every experiment reproduces exactly.  Objects
// run one handler at a time and hold no locks (DESIGN.md §3).
#pragma once

#include <cassert>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "base/loid.h"
#include "base/result.h"
#include "base/sim_time.h"
#include "obs/audit.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "obs/wallclock.h"
#include "sim/event_queue.h"
#include "sim/network.h"
#include "sim/profiler.h"

namespace legion {

class SimKernel;

// Base class for simulated Legion entities addressable by LOID.
class Actor {
 public:
  Actor(SimKernel* kernel, Loid loid) : kernel_(kernel), loid_(loid) {}
  virtual ~Actor() = default;

  Actor(const Actor&) = delete;
  Actor& operator=(const Actor&) = delete;

  const Loid& loid() const { return loid_; }
  SimKernel* kernel() const { return kernel_; }

 private:
  SimKernel* kernel_;
  Loid loid_;
};

template <typename T>
using Callback = std::function<void(Result<T>)>;

class SimKernel {
 public:
  explicit SimKernel(NetworkParams net_params = {});

  SimTime Now() const { return now_; }
  NetworkModel& network() { return network_; }
  LoidMinter& minter() { return minter_; }

  // ---- Observability ----------------------------------------------------
  // Every component of this simulated world reports into this registry /
  // trace log; see DESIGN.md "Observability".  Counters are read from a
  // metrics().Snapshot(), and metrics().Reset() starts a measurement
  // window for every component at once.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }
  obs::TraceLog& trace() { return trace_; }
  const obs::TraceLog& trace() const { return trace_; }
  // Flight recorder (observability v2): windowed metric timelines, the
  // per-handler kernel profiler, the decision audit log, and the single
  // wall-time source -- pinned by default so every export stays
  // deterministic.  All are off/no-op until explicitly enabled.
  obs::TimeSeriesRecorder& recorder() { return recorder_; }
  const obs::TimeSeriesRecorder& recorder() const { return recorder_; }
  KernelProfiler& profiler() { return profiler_; }
  const KernelProfiler& profiler() const { return profiler_; }
  obs::DecisionLog& audit() { return audit_; }
  const obs::DecisionLog& audit() const { return audit_; }
  obs::WallClock& wallclock() { return wallclock_; }
  const obs::WallClock& wallclock() const { return wallclock_; }

  // ---- Event scheduling -------------------------------------------------
  // `label` is an optional static "component/kind" string for the kernel
  // profiler's per-handler accounting (nullptr buckets as "kernel/event").
  EventId ScheduleAt(SimTime when, EventQueue::EventFn fn,
                     const char* label = nullptr);
  EventId ScheduleAfter(Duration delay, EventQueue::EventFn fn,
                        const char* label = nullptr);
  bool Cancel(EventId id) { return queue_.Cancel(id); }

  // Periodic timer; returns a handle that stops the timer when cancelled
  // via CancelPeriodic.  The first firing is after `period`.
  using PeriodicId = std::uint64_t;
  PeriodicId SchedulePeriodic(Duration period, std::function<void()> fn);
  void CancelPeriodic(PeriodicId id);

  // ---- Running ----------------------------------------------------------
  // Runs until the queue drains or `until`; returns events executed.
  std::uint64_t RunUntil(SimTime until);
  std::uint64_t Run() { return RunUntil(SimTime::Max()); }
  std::uint64_t RunFor(Duration d) { return RunUntil(now_ + d); }
  std::size_t queue_size() const { return queue_.size(); }

  // ---- Actor registry ---------------------------------------------------
  // The kernel owns its actors; AddActor transfers ownership.
  template <typename T, typename... Args>
  T* AddActor(Args&&... args) {
    auto actor = std::make_unique<T>(this, std::forward<Args>(args)...);
    T* raw = actor.get();
    actors_[raw->loid()] = std::move(actor);
    return raw;
  }
  // Adopts an externally constructed actor (e.g. from an ObjectFactory).
  Actor* AdoptActor(std::unique_ptr<Actor> actor);
  Actor* FindActor(const Loid& loid) const;
  void RemoveActor(const Loid& loid);
  std::size_t actor_count() const { return actors_.size(); }

  // ---- Messaging --------------------------------------------------------
  // One-way message: runs `fn` at the receiver after network latency.
  // Returns false if the network dropped it (fn never runs).
  bool Send(const Loid& from, const Loid& to, std::size_t bytes,
            std::function<void()> fn);

  // Asynchronous RPC with timeout.  `invoke` is executed at the callee
  // after request latency and is handed a reply callback; when the callee
  // calls the reply callback the result is delivered back to the caller
  // after reply latency.  If no reply lands before `timeout`, `done` gets
  // ErrorCode::kTimeout (this also covers dropped messages).  `done` is
  // invoked exactly once.  `op` names the call in traces and must be a
  // static string ("query_collection", "make_reservation", ...).
  template <typename T>
  void AsyncCall(const Loid& from, const Loid& to, std::size_t request_bytes,
                 std::size_t reply_bytes, Duration timeout,
                 std::function<void(Callback<T>)> invoke, Callback<T> done,
                 const char* op = "rpc");

 private:
  // Pre-resolved registry cells for the kernel's own hot-path metrics.
  struct Cells {
    obs::Counter* events_run;
    obs::Counter* messages_sent;
    obs::Counter* messages_dropped;
    obs::Counter* bytes_sent;
    obs::Counter* rpcs_started;
    obs::Counter* rpcs_completed;
    obs::Counter* rpcs_timed_out;
    obs::Histogram* rpc_latency_ok;
    obs::Histogram* rpc_latency_timeout;
    obs::Histogram* rpc_latency_error;
  };

  SimTime now_;
  EventQueue queue_;
  NetworkModel network_;
  LoidMinter minter_;
  obs::MetricsRegistry metrics_;
  obs::TraceLog trace_;
  obs::TimeSeriesRecorder recorder_;
  KernelProfiler profiler_;
  obs::DecisionLog audit_;
  obs::WallClock wallclock_;
  Cells cells_;
  std::unordered_map<Loid, std::unique_ptr<Actor>> actors_;
  std::unordered_map<PeriodicId, EventId> periodic_;
  PeriodicId next_periodic_ = 1;

  void RepeatPeriodic(PeriodicId id, Duration period,
                      std::shared_ptr<std::function<void()>> fn);

  // One record per AsyncCall, shared by its timeout event, its reply
  // callback and its reply message, which capture only the pointer.
  template <typename T>
  struct PendingCall {
    Callback<T> done;  // empty once the call finished
    Loid from;
    Loid to;
    std::size_t reply_bytes;
    const char* op;
    SimTime started;
    obs::SpanId span = obs::kNoSpan;
    obs::SpanId caller_span = obs::kNoSpan;
    EventId timeout_event = kInvalidEventId;
  };
  template <typename T>
  void FinishCall(PendingCall<T>& call, Result<T> r);
};

template <typename T>
void SimKernel::AsyncCall(const Loid& from, const Loid& to,
                          std::size_t request_bytes, std::size_t reply_bytes,
                          Duration timeout,
                          std::function<void(Callback<T>)> invoke,
                          Callback<T> done, const char* op) {
  cells_.rpcs_started->Add();
  if (profiler_.enabled()) profiler_.RpcStarted();
  auto call = std::make_shared<PendingCall<T>>(
      PendingCall<T>{std::move(done), from, to, reply_bytes, op, now_});
  // Causal span for the whole call; the callee runs inside it, so RPCs it
  // issues become children and the negotiation tree links up.
  if (trace_.enabled()) {
    call->caller_span = trace_.current();
    call->span = trace_.BeginSpan(
        now_, op, "rpc", call->caller_span,
        {{"from", from.ToString()}, {"to", to.ToString()}});
  }
  if (timeout > Duration::Zero()) {
    call->timeout_event = ScheduleAt(
        now_ + timeout,
        [this, call] {
          FinishCall<T>(*call,
                        Status::Error(ErrorCode::kTimeout, "rpc timeout"));
        },
        "kernel/rpc_timeout");
  }

  // Request path.  The callee executes with the RPC span current and is
  // handed the reply callback; the result crosses the network back, and
  // may be dropped, in which case the timeout fires at the caller.
  Send(from, to, request_bytes,
       [this, call, invoke = std::move(invoke)] {
         Callback<T> reply = [this, call](Result<T> r) {
           Send(call->to, call->from, call->reply_bytes,
                [this, call, r = std::move(r)]() mutable {
                  FinishCall(*call, std::move(r));
                });
         };
         if (call->span != obs::kNoSpan && trace_.enabled()) {
           obs::ScopedCurrent ctx(trace_, call->span);
           invoke(std::move(reply));
         } else {
           invoke(std::move(reply));
         }
       });
}

template <typename T>
void SimKernel::FinishCall(PendingCall<T>& call, Result<T> r) {
  // Whichever of {reply, timeout} lands first takes `done`; the loser
  // finds it gone.  `done` dies when this returns, however long the
  // reply callback is kept.
  if (!call.done) return;
  Callback<T> done = std::exchange(call.done, nullptr);
  queue_.Cancel(call.timeout_event);
  if (profiler_.enabled()) {
    profiler_.RpcFinished();
    profiler_.RecordRpc(call.op, now_ - call.started);
  }
  const char* outcome;
  const double latency_us = static_cast<double>((now_ - call.started).micros());
  if (r.ok()) {
    cells_.rpcs_completed->Add();
    cells_.rpc_latency_ok->Observe(latency_us);
    outcome = "ok";
  } else if (r.code() == ErrorCode::kTimeout) {
    cells_.rpcs_timed_out->Add();
    cells_.rpc_latency_timeout->Observe(latency_us);
    outcome = "timeout";
  } else {
    cells_.rpcs_completed->Add();
    cells_.rpc_latency_error->Observe(latency_us);
    outcome = "error";
  }
  if (call.span != obs::kNoSpan) {
    trace_.EndSpan(now_, call.span, {{"outcome", outcome}});
    // The continuation belongs to the caller's context, not the RPC's.
    obs::ScopedCurrent ctx(trace_, call.caller_span);
    done(std::move(r));
    return;
  }
  done(std::move(r));
}

}  // namespace legion
