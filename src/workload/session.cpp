#include "workload/session.h"

#include <algorithm>

namespace legion {

WorkloadSession::WorkloadSession(Metacomputer* metacomputer,
                                 SchedulerObject* scheduler)
    : metacomputer_(metacomputer), scheduler_(scheduler) {
  obs::MetricsRegistry& metrics = metacomputer->kernel()->metrics();
  const obs::Labels labels = {{"component", "session"}};
  offered_cell_ = metrics.GetCounter("apps_offered", labels);
  placed_cell_ = metrics.GetCounter("apps_placed", labels);
  completed_cell_ = metrics.GetCounter("apps_completed", labels);
  turnaround_cell_ = metrics.GetHistogram(
      "app_turnaround_s", labels,
      {1.0, 5.0, 15.0, 30.0, 60.0, 120.0, 300.0, 600.0, 1800.0, 3600.0});
}

void WorkloadSession::ScopeToDomain(DomainId domain) {
  CollectionFederation* federation = metacomputer_->federation();
  if (federation != nullptr && federation->sub(domain) != nullptr) {
    // Domain-restricted queries go straight to the owning sub-Collection:
    // intra-domain latency and push-fresh records.
    scheduler_->RouteQueries(federation->sub(domain)->loid(),
                             static_cast<std::int64_t>(domain));
    return;
  }
  // Flat topology: same semantics via the domain_scope filter.
  scheduler_->RouteQueries(metacomputer_->collection()->loid(),
                           static_cast<std::int64_t>(domain));
}

void WorkloadSession::Submit(const ApplicationSpec& app, ClassObject* klass) {
  SimKernel* kernel = metacomputer_->kernel();
  const std::size_t app_index = results_.size();
  SessionAppResult result;
  result.app_id = app_index;
  result.arrived = kernel->Now();
  results_.push_back(result);
  offered_cell_->Add();

  scheduler_->ScheduleAndEnact(
      {{klass->loid(), app.instances}}, RunOptions{2, 2},
      [this, app_index, app, klass](Result<RunOutcome> outcome) {
        if (!outcome.ok() || !outcome->success) return;  // rejected
        placed_cell_->Add();
        results_[app_index].placed = true;
        results_[app_index].placed_at = metacomputer_->kernel()->Now();
        RunApplication(app_index, app, klass, *outcome);
      });
}

void WorkloadSession::RunApplication(std::size_t app_index,
                                     const ApplicationSpec& app,
                                     ClassObject* klass,
                                     const RunOutcome& outcome) {
  SimKernel* kernel = metacomputer_->kernel();
  // Execution time under the placement, measured with the hosts in their
  // post-enactment state (this app's own load included).
  const std::vector<Loid> hosts =
      HostsOfMappings(outcome.feedback.reserved_mappings);
  const MakespanBreakdown breakdown = EstimateMakespan(*kernel, app, hosts);
  results_[app_index].dollars = breakdown.dollars;

  // Collect the started instances per host for teardown.
  std::vector<std::pair<Loid, Loid>> instance_hosts;  // (instance, host)
  for (std::size_t i = 0; i < outcome.enacted.instances.size(); ++i) {
    if (outcome.enacted.instances[i].ok()) {
      instance_hosts.emplace_back(outcome.enacted.instances[i].value(),
                                  outcome.feedback.reserved_mappings[i].host);
    }
  }
  kernel->ScheduleAfter(
      breakdown.makespan,
      [this, app_index, klass, instance_hosts] {
        for (const auto& [instance, host_loid] : instance_hosts) {
          if (auto* host = metacomputer_->FindHost(host_loid)) {
            host->FinishObject(instance);
          }
          klass->ForgetInstance(instance);
        }
        results_[app_index].finished_at = metacomputer_->kernel()->Now();
        completed_cell_->Add();
        turnaround_cell_->Observe(results_[app_index].turnaround().seconds());
      });
}

ClassObject* WorkloadSession::SubmitAt(const ApplicationSpec& app,
                                       const std::vector<SimTime>& arrivals) {
  // No class is ever removed: under loss, a rejected app's class can
  // still have a StartObject call in flight whose continuation uses it.
  ClassObject* klass = metacomputer_->MakeUniversalClass(
      app.name, app.memory_mb_per_instance, app.cpu_fraction_per_instance);
  SimKernel* kernel = metacomputer_->kernel();
  for (const SimTime& when : arrivals) {
    kernel->ScheduleAt(when, [this, app, klass] { Submit(app, klass); });
  }
  return klass;
}

SessionStats WorkloadSession::Stats(Duration horizon) const {
  SessionStats stats;
  stats.offered = results_.size();
  std::vector<double> turnarounds;
  for (const SessionAppResult& result : results_) {
    if (!result.placed) continue;
    ++stats.placed;
    if (result.finished_at <= result.arrived) continue;  // still running
    ++stats.completed;
    turnarounds.push_back(result.turnaround().seconds());
    stats.mean_wait_s += result.wait().seconds();
    stats.total_dollars += result.dollars;
  }
  if (stats.completed > 0) {
    double sum = 0.0;
    for (double t : turnarounds) sum += t;
    stats.mean_turnaround_s = sum / static_cast<double>(stats.completed);
    stats.mean_wait_s /= static_cast<double>(stats.completed);
    std::sort(turnarounds.begin(), turnarounds.end());
    stats.p95_turnaround_s =
        turnarounds[static_cast<std::size_t>(
            0.95 * static_cast<double>(turnarounds.size() - 1))];
    stats.throughput_per_hour =
        static_cast<double>(stats.completed) /
        std::max(horizon.seconds() / 3600.0, 1e-9);
  }
  return stats;
}

}  // namespace legion
