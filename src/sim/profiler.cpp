#include "sim/profiler.h"

#include "obs/json.h"

namespace legion {

void KernelProfiler::RecordHandler(const char* label, Duration queue_lag,
                                   std::int64_t wall_us) {
  ProfileEntry*& cached = handler_entries_[label];
  if (cached == nullptr) cached = &entries_[label];
  ProfileEntry& entry = *cached;
  ++entry.count;
  entry.queue_us += queue_lag.micros();
  entry.wall_us += wall_us;
}

void KernelProfiler::RecordRpc(const char* op, Duration sim_latency) {
  ProfileEntry*& cached = rpc_entries_[op];
  if (cached == nullptr) cached = &entries_[std::string("rpc/") + op];
  ProfileEntry& entry = *cached;
  ++entry.count;
  entry.sim_busy_us += sim_latency.micros();
}

const ProfileEntry* KernelProfiler::Find(std::string_view label) const {
  auto it = entries_.find(std::string(label));
  return it == entries_.end() ? nullptr : &it->second;
}

std::string KernelProfiler::ToJson() const {
  using obs::JsonNumber;
  using obs::JsonString;
  std::string out =
      "{\"queue_depth_high_water\":" +
      JsonNumber(static_cast<std::uint64_t>(queue_depth_high_water_)) +
      ",\"rpc_inflight_high_water\":" +
      JsonNumber(static_cast<std::uint64_t>(rpc_inflight_high_water_)) +
      ",\"handlers\":{";
  bool first = true;
  for (const auto& [label, entry] : entries_) {
    if (!first) out += ',';
    first = false;
    out += JsonString(label) + ":{\"count\":" + JsonNumber(entry.count) +
           ",\"queue_us\":" + JsonNumber(entry.queue_us) +
           ",\"sim_busy_us\":" + JsonNumber(entry.sim_busy_us) +
           ",\"wall_us\":" + JsonNumber(entry.wall_us) + '}';
  }
  out += "}}\n";
  return out;
}

void KernelProfiler::Reset() {
  entries_.clear();
  handler_entries_.clear();
  rpc_entries_.clear();
  queue_depth_high_water_ = 0;
  rpc_inflight_ = 0;
  rpc_inflight_high_water_ = 0;
}

}  // namespace legion
