#include "sim/kernel.h"

namespace legion {

SimKernel::SimKernel(NetworkParams net_params)
    : now_(SimTime::Zero()), network_(net_params) {
  const obs::Labels kernel_labels = {{"component", "kernel"}};
  cells_.events_run = metrics_.GetCounter("events_run", kernel_labels);
  cells_.messages_sent = metrics_.GetCounter("messages_sent", kernel_labels);
  cells_.messages_dropped =
      metrics_.GetCounter("messages_dropped", kernel_labels);
  cells_.bytes_sent = metrics_.GetCounter("bytes_sent", kernel_labels);
  cells_.rpcs_started = metrics_.GetCounter("rpcs_started", kernel_labels);
  cells_.rpcs_completed = metrics_.GetCounter("rpcs_completed", kernel_labels);
  cells_.rpcs_timed_out = metrics_.GetCounter("rpcs_timed_out", kernel_labels);
  cells_.rpc_latency_ok = metrics_.GetHistogram(
      "rpc_latency_us", {{"component", "kernel"}, {"outcome", "ok"}},
      obs::LatencyBucketsUs());
  cells_.rpc_latency_timeout = metrics_.GetHistogram(
      "rpc_latency_us", {{"component", "kernel"}, {"outcome", "timeout"}},
      obs::LatencyBucketsUs());
  cells_.rpc_latency_error = metrics_.GetHistogram(
      "rpc_latency_us", {{"component", "kernel"}, {"outcome", "error"}},
      obs::LatencyBucketsUs());
}

EventId SimKernel::ScheduleAt(SimTime when, EventQueue::EventFn fn,
                              const char* label) {
  assert(when >= now_ && "cannot schedule in the past");
  EventId id = queue_.Schedule(when, std::move(fn), label, now_);
  if (profiler_.enabled()) profiler_.RecordQueueDepth(queue_.size());
  return id;
}

EventId SimKernel::ScheduleAfter(Duration delay, EventQueue::EventFn fn,
                                 const char* label) {
  return ScheduleAt(now_ + delay, std::move(fn), label);
}

SimKernel::PeriodicId SimKernel::SchedulePeriodic(Duration period,
                                                  std::function<void()> fn) {
  PeriodicId id = next_periodic_++;
  auto shared_fn = std::make_shared<std::function<void()>>(std::move(fn));
  periodic_[id] = ScheduleAfter(
      period,
      [this, id, period, shared_fn] { RepeatPeriodic(id, period, shared_fn); },
      "kernel/periodic");
  return id;
}

void SimKernel::RepeatPeriodic(PeriodicId id, Duration period,
                               std::shared_ptr<std::function<void()>> fn) {
  auto it = periodic_.find(id);
  if (it == periodic_.end()) return;  // cancelled between firing and run
  (*fn)();
  // The callback may have cancelled the timer.
  it = periodic_.find(id);
  if (it == periodic_.end()) return;
  it->second = ScheduleAfter(
      period, [this, id, period, fn] { RepeatPeriodic(id, period, fn); },
      "kernel/periodic");
}

void SimKernel::CancelPeriodic(PeriodicId id) {
  auto it = periodic_.find(id);
  if (it == periodic_.end()) return;
  queue_.Cancel(it->second);
  periodic_.erase(it);
}

std::uint64_t SimKernel::RunUntil(SimTime until) {
  std::uint64_t executed = 0;
  while (!queue_.empty()) {
    SimTime next = queue_.NextTime();
    if (next > until) break;
    // Close recorder windows that end before the next event runs; the
    // recorder itself never schedules, so enabling it cannot change
    // events_run or any other fingerprint.
    recorder_.MaybeSample(next);
    auto ev = queue_.Pop();
    now_ = ev.when;
    if (profiler_.enabled()) {
      const std::int64_t wall_before = wallclock_.Micros();
      ev.fn();
      profiler_.RecordHandler(ev.label != nullptr ? ev.label : "kernel/event",
                              ev.when - ev.enqueued,
                              wallclock_.Micros() - wall_before);
    } else {
      ev.fn();
    }
    ++executed;
    cells_.events_run->Add();
  }
  if (now_ < until && until < SimTime::Max()) {
    now_ = until;
    recorder_.FlushThrough(until);
  }
  return executed;
}

Actor* SimKernel::AdoptActor(std::unique_ptr<Actor> actor) {
  Actor* raw = actor.get();
  actors_[raw->loid()] = std::move(actor);
  return raw;
}

Actor* SimKernel::FindActor(const Loid& loid) const {
  auto it = actors_.find(loid);
  return it == actors_.end() ? nullptr : it->second.get();
}

void SimKernel::RemoveActor(const Loid& loid) { actors_.erase(loid); }

bool SimKernel::Send(const Loid& from, const Loid& to, std::size_t bytes,
                     std::function<void()> fn) {
  cells_.messages_sent->Add();
  cells_.bytes_sent->Add(bytes);
  auto latency = network_.Latency(from, to, bytes, now_);
  if (!latency) {
    cells_.messages_dropped->Add();
    return false;
  }
  if (trace_.enabled()) {
    // A span per message in flight; the delivery handler runs inside it,
    // so work the receiver starts is caused-by this message.
    const obs::SpanId span =
        trace_.BeginSpan(now_, "msg", "net", trace_.current(),
                         {{"from", from.ToString()},
                          {"to", to.ToString()},
                          {"bytes", std::to_string(bytes)}});
    ScheduleAfter(
        *latency,
        [this, span, fn = std::move(fn)] {
          {
            obs::ScopedCurrent ctx(trace_, span);
            fn();
          }
          trace_.EndSpan(now_, span);
        },
        "net/msg");
  } else {
    ScheduleAfter(*latency, std::move(fn), "net/msg");
  }
  return true;
}

}  // namespace legion
