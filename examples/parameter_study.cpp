// A parameter-space study (paper section 4.3) placed with "k out of n"
// scheduling (section 3.3): ask for k=12 runs over an equivalence class
// of n=20 hosts, some of which refuse outside placements -- any k that
// grant reservations will do, and the cost-aware ranking keeps the bill
// down.
#include <cstdio>

#include "core/schedulers/k_of_n_scheduler.h"
#include "core/schedulers/ranked_scheduler.h"
#include "workload/executor.h"
#include "workload/metacomputer.h"

using namespace legion;

int main() {
  SimKernel kernel;
  MetacomputerConfig config;
  config.domains = 4;
  config.hosts_per_domain = 6;
  config.heterogeneous = false;
  config.seed = 31;
  Metacomputer metacomputer(&kernel, config);
  // A quarter of the hosts enforce an autonomy policy that refuses our
  // domain -- the Collection doesn't know that; the Enactor finds out.
  Rng rng(8);
  std::size_t refusing = 0;
  for (auto* host : metacomputer.hosts()) {
    if (rng.Bernoulli(0.25)) {
      host->SetPolicy(std::make_unique<DomainRefusalPolicy>(
          std::vector<std::uint32_t>{0}));
      ++refusing;
    }
  }
  metacomputer.PopulateCollection();
  std::printf("metacomputer: %zu hosts (%zu will refuse us), 4 domains\n",
              metacomputer.hosts().size(), refusing);

  ClassObject* point = metacomputer.MakeUniversalClass("sweep-point", 32, 1.0);
  point->SetEstimatedRuntime(Duration::Minutes(45));

  const std::size_t k = 12, n = 20;
  auto* scheduler = kernel.AddActor<KOfNScheduler>(
      kernel.minter().Mint(LoidSpace::kService, 0),
      metacomputer.collection()->loid(), metacomputer.enactor()->loid(), n);

  std::printf("requesting %zu runs out of an equivalence class of %zu...\n",
              k, n);
  RunOutcome outcome;
  scheduler->ScheduleAndEnact({{point->loid(), k}}, RunOptions{2, 2},
                              [&](Result<RunOutcome> r) {
                                if (r.ok()) outcome = *r;
                              });
  kernel.RunFor(Duration::Minutes(5));
  if (!outcome.success) {
    std::printf("placement FAILED\n");
    return 1;
  }

  const auto& winner = *outcome.feedback.winner;
  std::printf("placed: master schedule + %zu variant substitutions\n",
              winner.variant_indices.size());
  const obs::MetricsSnapshot metrics = kernel.metrics().Snapshot();
  auto count = [&](const char* name) {
    return static_cast<unsigned long long>(metrics.counters.at(
        obs::MetricsRegistry::CellKey(name, {{"component", "enactor"}})));
  };
  std::printf("negotiation: %llu reservation requests, %llu refused, "
              "%llu thrash remakes\n",
              count("reservations_requested"), count("reservations_failed"),
              count("rereservations"));

  ApplicationSpec app = MakeParameterStudy(k, /*work=*/30000.0);
  MakespanBreakdown breakdown = EstimateMakespan(
      kernel, app, HostsOfMappings(outcome.feedback.reserved_mappings));
  std::printf("estimated sweep makespan: %.1f s, cost $%.4f\n",
              breakdown.makespan.seconds(), breakdown.dollars);
  for (std::size_t i = 0; i < outcome.feedback.reserved_mappings.size();
       ++i) {
    const auto& mapping = outcome.feedback.reserved_mappings[i];
    auto* host = metacomputer.FindHost(mapping.host);
    std::printf("  point %2zu -> %-12s (load %.2f, $%.4f/cpu-s)\n", i,
                host->spec().name.c_str(), host->CurrentLoad(),
                host->spec().cost_per_cpu_second);
  }
  return 0;
}
