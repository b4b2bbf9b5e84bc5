#include "objects/rge.h"

namespace legion {

void EventManager::RegisterTrigger(TriggerSpec spec) {
  triggers_.push_back(Trigger{std::move(spec), false});
}

void EventManager::RegisterOutcall(
    const std::string& event_name,
    std::function<void(const RgeEvent&)> outcall) {
  outcalls_.push_back(Outcall{event_name, std::move(outcall)});
}

std::size_t EventManager::Evaluate(const AttributeDatabase& db, SimTime now) {
  // Collect firings first: outcalls may register triggers reentrantly.
  std::vector<RgeEvent> to_dispatch;
  for (auto& trigger : triggers_) {
    const bool guard = trigger.spec.guard && trigger.spec.guard(db);
    const bool fires = guard && !trigger.was_true;
    trigger.was_true = guard;
    if (!fires) continue;
    RgeEvent event;
    event.name = trigger.spec.event_name;
    event.source = owner_;
    event.when = now;
    event.payload.MergeFrom(db);
    to_dispatch.push_back(std::move(event));
  }
  for (const auto& event : to_dispatch) {
    ++events_raised_;
    Dispatch(event);
  }
  return to_dispatch.size();
}

void EventManager::Dispatch(const RgeEvent& event) {
  // Copy: an outcall may register another outcall during dispatch, which
  // can reallocate the list under the running one.
  auto outcalls = outcalls_;
  for (const auto& outcall : outcalls) {
    if (outcall.event_name.empty() || outcall.event_name == event.name) {
      outcall.fn(event);
    }
  }
}

}  // namespace legion
