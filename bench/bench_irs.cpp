// Experiment E3 (claim C4): "The Scheduler could just as easily build n
// schedules through calls to the original generator function, but IRS
// does fewer lookups in the Collection" -- and negative-feedback-driven
// variants raise the placement success rate under failures.
//
// Sweep the candidate count n.  "random xN" reproduces the paper's
// alternative (N independent figure-7 schedules, retried by the wrapper);
// IRS generates the same N candidates from one Collection snapshot.
#include "bench_util.h"
#include "core/schedulers/irs_scheduler.h"
#include "core/schedulers/random_scheduler.h"

namespace legion::bench {
namespace {

struct Outcome {
  int successes = 0;
  std::uint64_t lookups = 0;
  std::uint64_t reservation_requests = 0;
};

World ContendedWorld(int trial, std::size_t refusing) {
  MetacomputerConfig config;
  config.domains = 2;
  config.hosts_per_domain = 6;
  config.heterogeneous = false;
  config.seed = 7000 + trial;
  config.load.volatility = 0.0;
  World world = MakeWorld(config);
  for (std::size_t i = 0; i < refusing && i < world->hosts().size(); ++i) {
    world->hosts()[i * 2]->SetPolicy(std::make_unique<DomainRefusalPolicy>(
        std::vector<std::uint32_t>{0}));
  }
  return world;
}

Outcome RunIrs(std::size_t n, std::size_t refusing, int trials) {
  Outcome outcome;
  for (int trial = 0; trial < trials; ++trial) {
    World world = ContendedWorld(trial, refusing);
    ClassObject* klass = world->MakeUniversalClass("app");
    auto* irs = world.kernel->AddActor<IrsScheduler>(
        world.kernel->minter().Mint(LoidSpace::kService, 0),
        world->collection()->loid(), world->enactor()->loid(), n,
        100 + trial);
    bool success = false;
    irs->ScheduleAndEnact({{klass->loid(), 4}}, RunOptions{1, 1},
                          [&](Result<RunOutcome> r) {
                            success = r.ok() && r->success;
                          });
    world.kernel->RunFor(Duration::Minutes(5));
    outcome.successes += success ? 1 : 0;
    outcome.lookups += irs->collection_lookups();
    outcome.reservation_requests +=
        Count(*world.kernel, "reservations_requested", "enactor");
  }
  return outcome;
}

Outcome RunRepeatedRandom(std::size_t n, std::size_t refusing, int trials) {
  // N schedule attempts through the figure-7 generator: the wrapper's
  // SchedTryLimit plays the role of n.
  Outcome outcome;
  for (int trial = 0; trial < trials; ++trial) {
    World world = ContendedWorld(trial, refusing);
    ClassObject* klass = world->MakeUniversalClass("app");
    auto* random = world.kernel->AddActor<RandomScheduler>(
        world.kernel->minter().Mint(LoidSpace::kService, 0),
        world->collection()->loid(), world->enactor()->loid(), 100 + trial);
    bool success = false;
    random->ScheduleAndEnact({{klass->loid(), 4}},
                             RunOptions{static_cast<int>(n), 1},
                             [&](Result<RunOutcome> r) {
                               success = r.ok() && r->success;
                             });
    world.kernel->RunFor(Duration::Minutes(5));
    outcome.successes += success ? 1 : 0;
    outcome.lookups += random->collection_lookups();
    outcome.reservation_requests +=
        Count(*world.kernel, "reservations_requested", "enactor");
  }
  return outcome;
}

void RunExperiment() {
  const int trials = 30;
  Table table("E3 IRS vs repeated Random -- k=4 instances, 12 hosts, 4 "
              "refusing, 30 trials",
              "scheduler  n   success%  lookups/run  reservations/run");
  table.Begin();
  for (std::size_t n : {1UL, 2UL, 4UL, 8UL}) {
    Outcome irs = RunIrs(n, /*refusing=*/4, trials);
    Outcome random = RunRepeatedRandom(n, /*refusing=*/4, trials);
    table.Row("irs        %zu  %7.0f%%  %11.2f  %16.1f", n,
              100.0 * irs.successes / trials,
              static_cast<double>(irs.lookups) / trials,
              static_cast<double>(irs.reservation_requests) / trials);
    table.Row("random xN  %zu  %7.0f%%  %11.2f  %16.1f", n,
              100.0 * random.successes / trials,
              static_cast<double>(random.lookups) / trials,
              static_cast<double>(random.reservation_requests) / trials);
  }
}

}  // namespace
}  // namespace legion::bench

int main() {
  legion::bench::RunExperiment();
  return 0;
}
