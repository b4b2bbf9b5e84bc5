// Federating queue-managed machines (paper sections 3.1 and 5): a
// metacomputer mixing interactive Unix workstations, batch machines
// behind Condor-/LoadLeveler-style queues, and a Maui-style machine with
// native reservations.  Demonstrates:
//   * uniform reservation negotiation across all host kinds,
//   * advance reservations on the Maui host, whose queue sets them aside,
//   * the "unavoidable potential for conflict" on the non-reservation
//     queue, and
//   * monitor-driven migration away from a host whose owner returned.
#include <cstdio>

#include "core/migration.h"
#include "core/monitor.h"
#include "core/schedulers/ranked_scheduler.h"
#include "workload/metacomputer.h"

using namespace legion;

int main() {
  SimKernel kernel;
  MetacomputerConfig config;
  config.domains = 2;
  config.hosts_per_domain = 6;
  config.heterogeneous = false;
  config.batch_fraction = 0.4;
  config.maui_fraction = 0.2;
  config.seed = 97;
  Metacomputer metacomputer(&kernel, config);
  metacomputer.PopulateCollection();

  int unix_hosts = 0, batch_hosts = 0, maui_hosts = 0;
  for (auto* host : metacomputer.hosts()) {
    if (dynamic_cast<MauiHost*>(host) != nullptr) {
      ++maui_hosts;
    } else if (dynamic_cast<BatchQueueHost*>(host) != nullptr) {
      ++batch_hosts;
    } else {
      ++unix_hosts;
    }
  }
  std::printf("federation: %d unix, %d batch, %d maui hosts\n", unix_hosts,
              batch_hosts, maui_hosts);

  // 1. Uniform negotiation: reserve one slot on each kind of host.
  ClassObject* job = metacomputer.MakeUniversalClass("job", 64, 1.0);
  std::printf("\nadvance reservations (+10 min, 1 h) across host kinds:\n");
  for (auto* host : metacomputer.hosts()) {
    ReservationRequest request;
    request.vault = ParseLoid(host->attributes()
                                  .Get("compatible_vaults")
                                  ->as_list()
                                  .front()
                                  .as_string())
                        .value();
    request.start = kernel.Now() + Duration::Minutes(10);
    request.duration = Duration::Hours(1);
    request.type = ReservationType::OneShotTimesharing();
    request.requester = Loid(LoidSpace::kService, 0, 1);
    request.memory_mb = 64;
    request.cpu_fraction = 1.0;
    std::string verdict = "pending";
    host->MakeReservation(request, [&](Result<ReservationToken> token) {
      verdict = token.ok() ? "granted" : token.status().ToString();
    });
    kernel.RunFor(Duration::Millis(10));
    std::printf("  %-22s [%-11s] -> %s\n", host->spec().name.c_str(),
                host->attributes().Get("host_kind")->as_string().c_str(),
                verdict.c_str());
  }

  // 2. Place interactive work with a load-aware scheduler; batch hosts
  //    advertise queue lengths the scheduler can weigh.
  auto* scheduler = kernel.AddActor<LoadAwareScheduler>(
      kernel.minter().Mint(LoidSpace::kService, 0),
      metacomputer.collection()->loid(), metacomputer.enactor()->loid());
  RunOutcome outcome;
  scheduler->ScheduleAndEnact({{job->loid(), 6}}, RunOptions{2, 2},
                              [&](Result<RunOutcome> r) {
                                if (r.ok()) outcome = *r;
                              });
  kernel.RunFor(Duration::Minutes(5));
  std::printf("\nload-aware placement of 6 jobs: %s\n",
              outcome.success ? "succeeded" : "FAILED");
  if (!outcome.success) return 1;

  // 3. A workstation owner returns: trigger -> monitor -> migrate.
  const Loid victim = outcome.enacted.instances[0].value();
  auto* victim_object =
      dynamic_cast<LegionObject*>(kernel.FindActor(victim));
  HostObject* origin = metacomputer.FindHost(victim_object->host());
  MonitorObject* monitor = metacomputer.monitor();
  monitor->WatchLoadThreshold(origin, 2.0);
  monitor->SetRescheduleHandler([&](const RgeEvent& event) {
    HostObject* target = nullptr;
    for (auto* candidate : metacomputer.hosts()) {
      if (candidate->loid() == event.source) continue;
      if (dynamic_cast<BatchQueueHost*>(candidate) != nullptr) continue;
      if (target == nullptr ||
          candidate->CurrentLoad() < target->CurrentLoad()) {
        target = candidate;
      }
    }
    const Loid vault = ParseLoid(target->attributes()
                                     .Get("compatible_vaults")
                                     ->as_list()
                                     .front()
                                     .as_string())
                           .value();
    MigrateObject(&kernel, monitor->loid(), victim, target->loid(), vault,
                  [&, target](Result<MigrationOutcome> migration) {
                    if (migration.ok() && migration->success) {
                      std::printf(
                          "  migrated %s -> %s in %.0f ms\n",
                          migration->from_host.ToString().c_str(),
                          target->spec().name.c_str(),
                          migration->elapsed.millis());
                    }
                  });
  });
  std::printf("\nowner returns to %s (load spike):\n",
              origin->spec().name.c_str());
  origin->SpikeLoad(3.0);
  kernel.RunFor(Duration::Minutes(2));
  std::printf("victim now on %s (%s)\n",
              victim_object->host().ToString().c_str(),
              victim_object->active() ? "active" : "inactive");
  return 0;
}
