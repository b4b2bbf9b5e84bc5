// The kernel profiler: event accounting by (component, handler kind).
//
// It says where the kernel's events go: how many handler executions each
// component causes, how long events of each kind sit in the queue
// (sim-time occupancy), how much wall time each handler class burns, and
// how deep the event queue / RPC in-flight window get.  The kernel feeds
// this profiler from its run loop; instrumented scheduling sites label
// their events "component/kind" (static strings -- "net/msg",
// "enactor/backoff", ...), unlabeled ones account under "kernel/event".
//
// Off the fingerprint path: the profiler writes no registry cells and
// schedules no events, so metrics snapshots, traces, and bench tables
// are byte-identical whether it is enabled or not.  Wall time is read
// through the kernel's WallClock, which is pinned by default -- the
// wall_us fields are zero (and the profile dump deterministic) unless a
// caller opts into real time.
//
// Cost model: like the TraceLog.  enabled() is an inline flag test, so a
// disabled profiler costs one predictable branch per event.  An enabled
// one finds an entry by its label's static pointer, without building a
// string, after the label's first use.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>

#include "base/sim_time.h"

namespace legion {

// Accumulated accounting for one (component, kind) label.
struct ProfileEntry {
  std::uint64_t count = 0;      // handler executions
  std::int64_t queue_us = 0;    // sim-time the events sat in the queue
  std::int64_t sim_busy_us = 0; // sim-time occupancy (RPC start->finish)
  std::int64_t wall_us = 0;     // wall time inside the handlers
};

class KernelProfiler {
 public:
  bool enabled() const { return enabled_; }
  void Enable() { enabled_ = true; }
  void Disable() { enabled_ = false; }

  // One handler execution under `label` ("component/kind"): `queue_lag`
  // is run-time minus schedule-time (message flight, timer period, or
  // zero for immediate work), `wall_us` the handler's wall cost.
  void RecordHandler(const char* label, Duration queue_lag,
                     std::int64_t wall_us);

  // One completed RPC of kind `op`; `sim_latency` is start-to-finish
  // simulated time, accounted as sim-time occupancy under "rpc/<op>".
  void RecordRpc(const char* op, Duration sim_latency);

  // High-water marks.
  void RecordQueueDepth(std::size_t depth) {
    if (depth > queue_depth_high_water_) queue_depth_high_water_ = depth;
  }
  void RpcStarted() {
    if (++rpc_inflight_ > rpc_inflight_high_water_) {
      rpc_inflight_high_water_ = rpc_inflight_;
    }
  }
  void RpcFinished() {
    if (rpc_inflight_ > 0) --rpc_inflight_;
  }

  std::size_t queue_depth_high_water() const {
    return queue_depth_high_water_;
  }
  std::size_t rpc_inflight_high_water() const {
    return rpc_inflight_high_water_;
  }
  const std::map<std::string, ProfileEntry>& entries() const {
    return entries_;
  }
  const ProfileEntry* Find(std::string_view label) const;

  // Deterministic JSON dump: labels sorted, high-water marks, per-label
  // count/queue_us/sim_busy_us/wall_us.
  std::string ToJson() const;

  void Reset();

 private:
  bool enabled_ = false;
  std::map<std::string, ProfileEntry> entries_;
  // entries_ nodes by the static label (handlers) or op (RPCs) that first
  // reached them; std::map nodes never move, so these stay valid until
  // Reset clears all three.
  std::unordered_map<const char*, ProfileEntry*> handler_entries_;
  std::unordered_map<const char*, ProfileEntry*> rpc_entries_;
  std::size_t queue_depth_high_water_ = 0;
  std::size_t rpc_inflight_ = 0;
  std::size_t rpc_inflight_high_water_ = 0;
};

}  // namespace legion
