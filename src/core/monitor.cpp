#include "core/monitor.h"

#include "objects/core_hierarchy.h"

namespace legion {

MonitorObject::MonitorObject(SimKernel* kernel, Loid loid)
    : LegionObject(kernel, loid, ServiceClassLoid(loid.domain())) {
  kernel->network().RegisterEndpoint(loid, loid.domain());
  (void)Activate(loid, Loid());
  mutable_attributes().Set("service", "monitor");
  events_cell_ = kernel->metrics().GetCounter("monitor_events",
                                              {{"component", "monitor"}});
  suppressed_cell_ = kernel->metrics().GetCounter(
      "monitor_events_suppressed", {{"component", "monitor"}});
}

void MonitorObject::WatchHost(HostObject* host, const std::string& event_name) {
  SimKernel* kernel = this->kernel();
  const Loid host_loid = host->loid();
  const Loid monitor_loid = loid();
  host->events().RegisterOutcall(
      event_name, [kernel, host_loid, monitor_loid](const RgeEvent& event) {
        // The outcall crosses the network from the host to the monitor.
        kernel->Send(host_loid, monitor_loid, kSmallMessage,
                     [kernel, monitor_loid, event] {
                       auto* monitor = dynamic_cast<MonitorObject*>(
                           kernel->FindActor(monitor_loid));
                       if (monitor != nullptr) monitor->OnEvent(event);
                     });
      });
}

std::string MonitorObject::WatchLoadThreshold(HostObject* host,
                                              double threshold) {
  const std::string event_name =
      "load_above_" + std::to_string(threshold);
  TriggerSpec spec;
  spec.event_name = event_name;
  spec.guard = [threshold](const AttributeDatabase& attrs) {
    const AttrValue* load = attrs.Get("host_load");
    return load != nullptr && load->is_numeric() &&
           load->as_double() > threshold;
  };
  host->events().RegisterTrigger(std::move(spec));
  WatchHost(host, event_name);
  return event_name;
}

void MonitorObject::OnEvent(const RgeEvent& event) {
  events_cell_->Add();
  if (!handler_) return;
  // Debounce per (source, event): a flapping guard re-fires the outcall on
  // every threshold crossing, but a second reschedule request within the
  // window would just chase the migration the first one started.
  const SimTime now = kernel()->Now();
  const auto key = std::make_pair(event.source, event.name);
  auto it = last_dispatch_.find(key);
  if (it != last_dispatch_.end() && now - it->second < kMinRescheduleInterval) {
    suppressed_cell_->Add();
    return;
  }
  last_dispatch_[key] = now;
  handler_(event);
}

}  // namespace legion
