// Experiment E1 (claim C2): "Legion provides simple, generic default
// Schedulers that offer the classic '90%' solution -- they do an adequate
// job, but can easily be outperformed by Schedulers with specialized
// algorithms or knowledge of the application."
//
// For each scheduler, place a structured application (2-D stencil, the
// paper's MPI ocean-simulation shape) and an unstructured one (parameter
// study) on a heterogeneous multi-domain metacomputer, then report the
// estimated makespan, communication structure, and dollar cost of the
// resulting placement.  Expected shape: specialized (stencil) < ranked
// (load/cost-aware) < random/round-robin on the stencil makespan; the
// gap narrows for the unstructured workload.
#include "bench_util.h"
#include "core/schedulers/irs_scheduler.h"
#include "core/schedulers/k_of_n_scheduler.h"
#include "core/schedulers/random_scheduler.h"
#include "core/schedulers/ranked_scheduler.h"
#include "core/schedulers/stencil_scheduler.h"
#include "workload/executor.h"

namespace legion::bench {
namespace {

struct CellResult {
  bool success = false;
  MakespanBreakdown breakdown;
  Duration place_latency;
};

enum class Policy { kRandom, kIrs, kRoundRobin, kLoadAware, kCostAware,
                    kStencil };

const char* Name(Policy policy) {
  switch (policy) {
    case Policy::kRandom: return "random";
    case Policy::kIrs: return "irs";
    case Policy::kRoundRobin: return "round-robin";
    case Policy::kLoadAware: return "load-aware";
    case Policy::kCostAware: return "cost-aware";
    case Policy::kStencil: return "stencil";
  }
  return "?";
}

SchedulerObject* Make(Policy policy, World& world, std::size_t rows,
                      std::size_t cols) {
  SimKernel* kernel = world.kernel.get();
  const Loid loid = kernel->minter().Mint(LoidSpace::kService, 0);
  const Loid collection = world->collection()->loid();
  const Loid enactor = world->enactor()->loid();
  switch (policy) {
    case Policy::kRandom:
      return kernel->AddActor<RandomScheduler>(loid, collection, enactor, 7);
    case Policy::kIrs:
      return kernel->AddActor<IrsScheduler>(loid, collection, enactor, 4, 7);
    case Policy::kRoundRobin:
      return kernel->AddActor<RoundRobinScheduler>(loid, collection, enactor);
    case Policy::kLoadAware:
      return kernel->AddActor<LoadAwareScheduler>(loid, collection, enactor);
    case Policy::kCostAware:
      return kernel->AddActor<CostAwareScheduler>(loid, collection, enactor);
    case Policy::kStencil:
      return kernel->AddActor<StencilScheduler>(loid, collection, enactor,
                                                rows, cols);
  }
  return nullptr;
}

CellResult RunCell(Policy policy, const ApplicationSpec& app,
                   std::size_t rows, std::size_t cols, std::size_t domains,
                   std::size_t hosts_per_domain) {
  MetacomputerConfig config;
  config.domains = domains;
  config.hosts_per_domain = hosts_per_domain;
  config.vaults_per_domain = 2;
  config.heterogeneous = false;  // keep every host eligible
  config.seed = 1234;
  config.load.initial = 0.3;
  config.load.mean = 0.3;
  config.load.volatility = 0.15;
  World world = MakeWorld(config);
  // Let background load diversify so load-aware has signal.
  for (auto* host : world->hosts()) host->ReassessState();
  world->PopulateCollection();

  ClassObject* klass = world->MakeUniversalClass(
      app.name, app.memory_mb_per_instance, app.cpu_fraction_per_instance);
  SchedulerObject* scheduler = Make(policy, world, rows, cols);

  CellResult result;
  const SimTime started = world.kernel->Now();
  scheduler->ScheduleAndEnact(
      {{klass->loid(), app.instances}}, RunOptions{3, 2},
      [&](Result<RunOutcome> outcome) {
        if (!outcome.ok() || !outcome->success) return;
        result.success = true;
        result.breakdown = EstimateMakespan(
            *world.kernel, app,
            HostsOfMappings(outcome->feedback.reserved_mappings));
      });
  world.kernel->RunFor(Duration::Minutes(5));
  result.place_latency = world.kernel->Now() - started;
  return result;
}

void RunExperiment() {
  const std::size_t rows = 6, cols = 6;
  ApplicationSpec stencil =
      MakeStencil2D(rows, cols, /*work=*/50.0, /*halo=*/256 * 1024,
                    /*iters=*/50);
  ApplicationSpec study = MakeParameterStudy(rows * cols, /*work=*/4000.0);

  struct Workload {
    ApplicationSpec app;
    const char* key;  // names the table's JSON mirror
    const char* label;
  };
  for (const Workload& workload :
       {Workload{stencil, "stencil", "stencil 6x6 (comm-heavy)"},
        Workload{study, "study", "parameter study n=36 (compute-only)"}}) {
    const ApplicationSpec& app = workload.app;
    for (std::size_t hosts : {16UL, 48UL}) {
      const std::size_t domains = 4;
      Table table(std::string("E1 scheduler quality -- ") + workload.label +
                      ", " + std::to_string(hosts) + " hosts / " +
                      std::to_string(domains) + " domains",
                  "scheduler     ok  makespan_s  comm_s  xdom_edges  "
                  "max_load  dollars");
      table.EnableJson(std::string("scheduler_quality_") + workload.key +
                           "_" + std::to_string(hosts),
                       {"scheduler", "ok", "makespan_s", "comm_s",
                        "xdom_edges", "max_load", "dollars"});
      table.Begin();
      for (Policy policy :
           {Policy::kRandom, Policy::kIrs, Policy::kRoundRobin,
            Policy::kLoadAware, Policy::kCostAware, Policy::kStencil}) {
        if (policy == Policy::kStencil && app.edges.empty()) continue;
        CellResult cell =
            RunCell(policy, app, rows, cols, domains, hosts / domains);
        table.Row("%-12s  %2s  %10.2f  %6.2f  %10zu  %8.2f  %7.4f",
                  {Name(policy), cell.success ? "y" : "N",
                   cell.breakdown.makespan.seconds(),
                   cell.breakdown.comm_time.seconds(),
                   cell.breakdown.inter_domain_edges,
                   cell.breakdown.max_host_load, cell.breakdown.dollars});
      }
    }
  }
}

}  // namespace
}  // namespace legion::bench

int main() {
  legion::bench::RunExperiment();
  return 0;
}
