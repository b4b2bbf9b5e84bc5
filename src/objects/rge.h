// The Reflective Graph and Event (RGE) trigger mechanism.
//
// Paper section 2.1: "Hosts also contain a mechanism for defining event
// triggers -- this allows a Host to, e.g., initiate object migration if its
// load rises above a threshold.  Conceptually, triggers are guarded
// statements which raise events if the guard evaluates to a boolean true."
// Section 3.5: the Monitor registers an *outcall* that is performed when a
// trigger's guard evaluates to true.
//
// EventManager implements the slice of RGE the RMI uses: named triggers
// with guards over an attribute database, and outcall subscriptions keyed
// by event name.  Triggers are edge-sensitive: the event fires when the
// guard transitions false->true and re-arms when it goes false again,
// which prevents outcall storms while a condition persists.  Triggers and
// outcalls stay registered for the owner's lifetime, as the Monitor's
// watches do.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "base/attributes.h"
#include "base/loid.h"
#include "base/sim_time.h"

namespace legion {

// An event raised by a trigger.
struct RgeEvent {
  std::string name;     // event name (== trigger's event_name)
  Loid source;          // object whose trigger fired
  SimTime when;         // simulated time of the firing
  AttributeDatabase payload;  // snapshot of guard-relevant attributes
};

struct TriggerSpec {
  std::string event_name;
  // Guard over the owning object's attribute database.
  std::function<bool(const AttributeDatabase&)> guard;
};

class EventManager {
 public:
  explicit EventManager(Loid owner) : owner_(owner) {}

  void RegisterTrigger(TriggerSpec spec);

  // Subscribes `outcall` to every event with the given name.  An empty
  // name subscribes to all events from this manager.
  void RegisterOutcall(const std::string& event_name,
                       std::function<void(const RgeEvent&)> outcall);

  // Evaluates every trigger guard against `db`; dispatches outcalls for
  // each trigger that fires.  Returns the number of events raised.
  std::size_t Evaluate(const AttributeDatabase& db, SimTime now);

  std::uint64_t events_raised() const { return events_raised_; }

 private:
  struct Trigger {
    TriggerSpec spec;
    bool was_true = false;  // edge detection state
  };
  struct Outcall {
    std::string event_name;
    std::function<void(const RgeEvent&)> fn;
  };

  void Dispatch(const RgeEvent& event);

  Loid owner_;
  std::vector<Trigger> triggers_;
  std::vector<Outcall> outcalls_;
  std::uint64_t events_raised_ = 0;
};

}  // namespace legion
