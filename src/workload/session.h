// Arrival-driven workload sessions.
//
// The paper's goal statement: users want to optimize "application
// throughput, turnaround time, or cost" (§1).  A WorkloadSession drives
// a stream of applications at a metacomputer: each arrival asks a
// Scheduler to place it (the full figure-3 pipeline), runs for a
// duration determined by its placement (work / effective host speed),
// then completes and frees its hosts.  The session records per-app
// turnaround and system-level throughput/utilization -- the measurements
// the paper says it was "in the process of benchmarking".
#pragma once

#include <vector>

#include "core/scheduler.h"
#include "workload/app_model.h"
#include "workload/executor.h"
#include "workload/metacomputer.h"

namespace legion {

struct SessionAppResult {
  std::size_t app_id = 0;
  SimTime arrived;
  bool placed = false;
  SimTime placed_at;
  SimTime finished_at;
  Duration turnaround() const { return finished_at - arrived; }
  Duration wait() const { return placed_at - arrived; }
  double dollars = 0.0;
};

struct SessionStats {
  std::size_t offered = 0;
  std::size_t placed = 0;
  std::size_t completed = 0;
  double mean_turnaround_s = 0.0;
  double mean_wait_s = 0.0;
  double p95_turnaround_s = 0.0;
  double total_dollars = 0.0;
  // Completed work per simulated hour.
  double throughput_per_hour = 0.0;
};

class WorkloadSession {
 public:
  // The session drives `scheduler` (which must already be wired to the
  // metacomputer's Collection/Enactor).
  WorkloadSession(Metacomputer* metacomputer, SchedulerObject* scheduler);

  // Submits `app` once at each arrival time.  The whole stream shares
  // one class, made now and returned.  Instances run work[i]
  // MIPS-seconds and then finish (their hosts are told via
  // FinishObject); a finished app's instances leave the class's
  // registry, so the class lists only running instances.
  ClassObject* SubmitAt(const ApplicationSpec& app,
                        const std::vector<SimTime>& arrivals);

  const std::vector<SessionAppResult>& results() const { return results_; }
  SessionStats Stats(Duration horizon) const;

  // ---- Federated routing (DESIGN.md §10) ------------------------------------
  // Restricts this session's placements to one domain: the scheduler is
  // routed to the owning sub-Collection (fresh, intra-domain) when the
  // metacomputer is federated, or to the flat Collection with a
  // domain_scope filter otherwise.
  void ScopeToDomain(DomainId domain);

 private:
  void Submit(const ApplicationSpec& app, ClassObject* klass);
  void RunApplication(std::size_t app_index, const ApplicationSpec& app,
                      ClassObject* klass, const RunOutcome& outcome);

  Metacomputer* metacomputer_;
  SchedulerObject* scheduler_;
  std::vector<SessionAppResult> results_;
  // Registry cells ({component=session}); live mirrors of the counts
  // Stats() derives from results_.
  obs::Counter* offered_cell_ = nullptr;
  obs::Counter* placed_cell_ = nullptr;
  obs::Counter* completed_cell_ = nullptr;
  obs::Histogram* turnaround_cell_ = nullptr;
};

}  // namespace legion
