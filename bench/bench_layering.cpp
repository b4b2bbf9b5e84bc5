// Experiment E6 (figure 2 / claim C1): the cost of each resource
// management layering.
//
// The same logical placement (k random instances) is driven under the
// four layerings of figure 2.  Reported per placement: messages, bytes,
// and latency.  Expected shape: (a) cheapest, (c) = (a) + one service
// round trip, (d) dearest -- "cost that scales with capability", rising
// smoothly as modules are separated.
#include "bench_util.h"
#include "core/layering.h"
#include "core/schedulers/random_scheduler.h"

namespace legion::bench {
namespace {

struct LayeringCost {
  double messages = 0.0;
  double kbytes = 0.0;
  double latency_ms = 0.0;
  double success = 0.0;
};

LayeringCost RunCell(Layering layering, std::size_t instances, int rounds) {
  MetacomputerConfig config;
  config.domains = 2;
  config.hosts_per_domain = 8;
  config.heterogeneous = false;
  config.seed = 6100;
  config.load.volatility = 0.0;
  World world = MakeWorld(config);
  ClassObject* klass = world->MakeUniversalClass("app", 16, 0.05);
  // Keep the comparison about *control* messages: layering (d) selects
  // implementations (so starts pull the class binary) while the
  // application-side layerings do not; a tiny binary removes that
  // asymmetry from the data-volume column.
  klass->SetBinaryBytes(1024);

  auto* scheduler = world.kernel->AddActor<RandomScheduler>(
      world.kernel->minter().Mint(LoidSpace::kService, 0),
      world->collection()->loid(), world->enactor()->loid(), 61);
  ApplicationCoordinator::Wiring wiring;
  wiring.collection = world->collection()->loid();
  wiring.enactor = world->enactor()->loid();
  wiring.scheduler = scheduler->loid();
  auto* combined = world.kernel->AddActor<ApplicationCoordinator>(
      world.kernel->minter().Mint(LoidSpace::kService, 0),
      Layering::kApplicationDoesAll, wiring, 62);
  wiring.combined_service = combined->loid();
  auto* app = world.kernel->AddActor<ApplicationCoordinator>(
      world.kernel->minter().Mint(LoidSpace::kService, 0), layering, wiring,
      63);

  LayeringCost cost;
  for (int round = 0; round < rounds; ++round) {
    world.kernel->metrics().Reset();
    // Each round owns its trace: a placement still running when its
    // window ends answers during a later round, into its own trace.
    auto trace = std::make_shared<PlacementTrace>();
    app->Place({{klass->loid(), instances}},
               [trace](Result<PlacementTrace> r) {
                 if (r.ok()) *trace = *r;
               });
    world.kernel->RunFor(Duration::Minutes(2));
    cost.messages += Count(*world.kernel, "messages_sent", "kernel");
    cost.kbytes += Count(*world.kernel, "bytes_sent", "kernel") / 1024.0;
    cost.latency_ms += trace->latency.millis();
    cost.success += trace->success ? 1.0 : 0.0;
  }
  cost.messages /= rounds;
  cost.kbytes /= rounds;
  cost.latency_ms /= rounds;
  cost.success = 100.0 * cost.success / rounds;
  return cost;
}

void RunExperiment() {
  const int rounds = 10;
  for (std::size_t instances : {2UL, 8UL}) {
    Table table("E6 layering cost (figure 2) -- k=" +
                    std::to_string(instances) +
                    " instances, 16 hosts / 2 domains, 10 placements",
                "layering             success%  msgs/placement  "
                "kb/placement  latency_ms");
    table.EnableJson("layering_k" + std::to_string(instances),
                     {"layering", "success_pct", "msgs_per_placement",
                      "kb_per_placement", "latency_ms"});
    table.Begin();
    for (Layering layering :
         {Layering::kApplicationDoesAll, Layering::kApplicationPlusRm,
          Layering::kCombinedModule, Layering::kSeparateModules}) {
      LayeringCost cost = RunCell(layering, instances, rounds);
      table.Row("%-19s  %7.0f%%  %14.1f  %12.1f  %10.1f",
                {ToString(layering), cost.success, cost.messages, cost.kbytes,
                 cost.latency_ms});
    }
  }
}

}  // namespace
}  // namespace legion::bench

int main() {
  legion::bench::RunExperiment();
  return 0;
}
