// The execution Monitor (paper section 3.5).
//
// "Legion provides an event-based notification mechanism via its RGE
// model.  Using this mechanism, the Monitor can register an outcall with
// the Host Objects; this outcall will be performed when a trigger's guard
// evaluates to true. ... If, during execution, a resource decides that
// the object needs to be migrated, it performs an outcall to a Monitor,
// which notifies the Scheduler and Enactor that rescheduling should be
// performed (steps 12 and 13)."
//
// The paper notes their implementation has no separate monitor objects
// (the Enactor or Scheduler performs the monitoring); we provide the
// standalone object -- the most general layering -- whose notification
// handler is typically wired to a scheduler's recompute path or the
// migration engine.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <utility>

#include "objects/legion_object.h"
#include "objects/rge.h"
#include "resources/host_object.h"

namespace legion {

class MonitorObject : public LegionObject {
 public:
  MonitorObject(SimKernel* kernel, Loid loid);

  std::string DebugName() const override { return "monitor"; }

  // Registers an outcall on the host's RGE event manager for the named
  // event.  The firing travels as a (message-counted) outcall from the
  // host to this monitor.
  void WatchHost(HostObject* host, const std::string& event_name);

  // Installs a convenience "load above threshold" trigger on the host
  // and watches the resulting event.  Returns the event name used.
  std::string WatchLoadThreshold(HostObject* host, double threshold);

  // Steps 12-13: what to do when a resource asks for rescheduling.
  using RescheduleHandler = std::function<void(const RgeEvent&)>;
  void SetRescheduleHandler(RescheduleHandler handler) {
    handler_ = std::move(handler);
  }

 private:
  void OnEvent(const RgeEvent& event);

  // Debounce window for the reschedule handler.  An edge-sensitive load
  // trigger on a flapping host re-fires every time the guard crosses the
  // threshold; without a floor between dispatches one sustained spike can
  // request a migration per evaluation tick while the first migration is
  // still in flight (a reschedule storm).  Events arriving inside the
  // window are still counted and traced, but the handler is not invoked.
  static constexpr Duration kMinRescheduleInterval = Duration::Seconds(30);

  RescheduleHandler handler_;
  // Last handler dispatch per (source host, event name).
  std::map<std::pair<Loid, std::string>, SimTime> last_dispatch_;
  // Registry cells monitor_events and monitor_events_suppressed
  // ({component=monitor}), shared by every Monitor of the kernel.
  obs::Counter* events_cell_ = nullptr;
  obs::Counter* suppressed_cell_ = nullptr;
};

}  // namespace legion
