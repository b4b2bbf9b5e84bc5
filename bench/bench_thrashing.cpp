// Experiment E2 (claim C3): "Our default Schedulers and Enactor work
// together to structure the variant schedules so as to avoid reservation
// thrashing (the canceling and subsequent remaking of the same
// reservation).  Our data structure includes a bitmap field ... which
// allows the Enactor to efficiently select the next variant schedule to
// try."
//
// Under contention (single-CPU hosts with no oversubscription, several
// of them refusing outside placements), the bitmap-guided Enactor keeps
// the reservations variants don't touch, while the naive baseline
// cancels everything on any failure and remakes identical reservations.
// Reported: reservation requests, cancels, and the thrash count
// (re-reservations of an identical mapping) per negotiation.
#include "bench_util.h"
#include "core/schedulers/irs_scheduler.h"
#include "core/schedulers/k_of_n_scheduler.h"

namespace legion::bench {
namespace {

struct Totals {
  std::uint64_t requested = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t rethrash = 0;
  int successes = 0;
  int trials = 0;
};

Totals RunMode(bool use_bitmaps, std::size_t refusing, std::size_t instances,
               int trials) {
  Totals totals;
  for (int trial = 0; trial < trials; ++trial) {
    MetacomputerConfig config;
    config.domains = 2;
    config.hosts_per_domain = 8;
    config.vaults_per_domain = 2;
    config.heterogeneous = false;
    config.seed = 5000 + trial;
    config.load.volatility = 0.0;
    World world = MakeWorld(config);
    world->enactor()->options().use_variant_bitmaps = use_bitmaps;
    // Some hosts enforce an autonomy policy that refuses the enactor's
    // domain -- the scheduler can't see that in the Collection, so its
    // master schedules regularly name them.
    for (std::size_t i = 0; i < refusing && i < world->hosts().size(); ++i) {
      world->hosts()[i * 2]->SetPolicy(
          std::make_unique<DomainRefusalPolicy>(
              std::vector<std::uint32_t>{0}));
    }
    ClassObject* klass = world->MakeUniversalClass("contended");
    auto* scheduler = world.kernel->AddActor<IrsScheduler>(
        world.kernel->minter().Mint(LoidSpace::kService, 0),
        world->collection()->loid(), world->enactor()->loid(),
        /*nsched=*/6, /*seed=*/900 + trial);
    bool success = false;
    scheduler->ScheduleAndEnact({{klass->loid(), instances}},
                                RunOptions{1, 1},
                                [&](Result<RunOutcome> outcome) {
                                  success =
                                      outcome.ok() && outcome->success;
                                });
    world.kernel->RunFor(Duration::Minutes(5));
    totals.requested +=
        Count(*world.kernel, "reservations_requested", "enactor");
    totals.cancelled +=
        Count(*world.kernel, "reservations_cancelled", "enactor");
    totals.rethrash += Count(*world.kernel, "rereservations", "enactor");
    totals.successes += success ? 1 : 0;
    ++totals.trials;
  }
  return totals;
}

// Second scenario: schedules whose variants each replace a *single*
// mapping (the k-of-n shape, and the structure the paper's discussion
// assumes).  Here the contrast is structural: the bitmap path never
// touches the k-1 healthy reservations, while cancel-all remakes the
// identical reservations on every retry round.
Totals RunSingleBitMode(bool use_bitmaps, std::size_t refusing,
                        std::size_t k, int trials) {
  Totals totals;
  for (int trial = 0; trial < trials; ++trial) {
    MetacomputerConfig config;
    config.domains = 2;
    config.hosts_per_domain = 8;
    config.vaults_per_domain = 2;
    config.heterogeneous = false;
    config.seed = 5100 + trial;
    config.load.volatility = 0.0;
    World world = MakeWorld(config);
    world->enactor()->options().use_variant_bitmaps = use_bitmaps;
    for (std::size_t i = 0; i < refusing && i < world->hosts().size(); ++i) {
      world->hosts()[i * 2]->SetPolicy(
          std::make_unique<DomainRefusalPolicy>(
              std::vector<std::uint32_t>{0}));
    }
    ClassObject* klass = world->MakeUniversalClass("replica");
    auto* scheduler = world.kernel->AddActor<KOfNScheduler>(
        world.kernel->minter().Mint(LoidSpace::kService, 0),
        world->collection()->loid(), world->enactor()->loid(),
        /*n=*/k + 6);
    bool success = false;
    scheduler->ScheduleAndEnact({{klass->loid(), k}}, RunOptions{1, 1},
                                [&](Result<RunOutcome> outcome) {
                                  success =
                                      outcome.ok() && outcome->success;
                                });
    world.kernel->RunFor(Duration::Minutes(5));
    totals.requested +=
        Count(*world.kernel, "reservations_requested", "enactor");
    totals.cancelled +=
        Count(*world.kernel, "reservations_cancelled", "enactor");
    totals.rethrash += Count(*world.kernel, "rereservations", "enactor");
    totals.successes += success ? 1 : 0;
    ++totals.trials;
  }
  return totals;
}

void RunExperiment() {
  const int trials = 20;
  {
    Table table("E2a reservation thrashing -- bitmap-guided variants vs "
                "naive cancel-all (IRS n=6, 16 hosts, 20 trials each)",
                "mode    refusing  k   success%  reqs/run  cancels/run  "
                "thrash/run");
    table.EnableJson("thrashing_a",
                     {"mode", "refusing", "k", "success_pct", "reqs_per_run",
                      "cancels_per_run", "thrash_per_run"});
    table.Begin();
    for (std::size_t refusing : {2UL, 4UL, 6UL}) {
      for (std::size_t instances : {4UL, 8UL}) {
        for (bool bitmaps : {true, false}) {
          Totals totals = RunMode(bitmaps, refusing, instances, trials);
          table.Row("%-6s  %8zu  %zu  %7.0f%%  %8.1f  %11.1f  %10.2f",
                    {bitmaps ? "bitmap" : "naive", refusing, instances,
                     100.0 * totals.successes / totals.trials,
                     static_cast<double>(totals.requested) / totals.trials,
                     static_cast<double>(totals.cancelled) / totals.trials,
                     static_cast<double>(totals.rethrash) / totals.trials});
        }
      }
    }
  }
  {
    Table table("E2b same, with single-replacement variant schedules "
                "(k-of-n shape, n = k+6)",
                "mode    refusing  k   success%  reqs/run  cancels/run  "
                "thrash/run");
    table.EnableJson("thrashing_b",
                     {"mode", "refusing", "k", "success_pct", "reqs_per_run",
                      "cancels_per_run", "thrash_per_run"});
    table.Begin();
    for (std::size_t refusing : {2UL, 4UL, 6UL}) {
      for (std::size_t instances : {4UL, 8UL}) {
        for (bool bitmaps : {true, false}) {
          Totals totals =
              RunSingleBitMode(bitmaps, refusing, instances, trials);
          table.Row("%-6s  %8zu  %zu  %7.0f%%  %8.1f  %11.1f  %10.2f",
                    {bitmaps ? "bitmap" : "naive", refusing, instances,
                     100.0 * totals.successes / totals.trials,
                     static_cast<double>(totals.requested) / totals.trials,
                     static_cast<double>(totals.cancelled) / totals.trials,
                     static_cast<double>(totals.rethrash) / totals.trials});
        }
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
