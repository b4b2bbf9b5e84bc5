// Experiment E10 (paper 3.3): "k out of n" scheduling.
//
// The scheduler names an equivalence class of n hosts and asks the
// Enactor to start k instances on any of them.  Sweep the slack (n-k)
// against the fraction of hosts that refuse placements; report success
// rate and negotiation effort.  Expected shape: success rises steeply
// with slack; effort (reservation requests per success) stays modest
// because single-bit variants never disturb positions that already hold
// reservations.
#include "bench_util.h"
#include "core/schedulers/k_of_n_scheduler.h"

namespace legion::bench {
namespace {

struct KOfNResult {
  double success = 0.0;
  double reservations = 0.0;
  double rethrash = 0.0;
};

KOfNResult RunCell(std::size_t k, std::size_t n, double refuse_fraction,
                   int trials) {
  KOfNResult result;
  for (int trial = 0; trial < trials; ++trial) {
    MetacomputerConfig config;
    config.domains = 2;
    config.hosts_per_domain = 8;
    config.heterogeneous = false;
    config.seed = 9900 + trial;
    config.load.volatility = 0.05;
    World world = MakeWorld(config);
    Rng rng(400 + trial);
    for (auto* host : world->hosts()) {
      if (rng.Bernoulli(refuse_fraction)) {
        host->SetPolicy(std::make_unique<DomainRefusalPolicy>(
            std::vector<std::uint32_t>{0}));
      }
    }
    ClassObject* klass = world->MakeUniversalClass("replica", 16, 0.2);
    auto* scheduler = world.kernel->AddActor<KOfNScheduler>(
        world.kernel->minter().Mint(LoidSpace::kService, 0),
        world->collection()->loid(), world->enactor()->loid(), n);
    bool success = false;
    scheduler->ScheduleAndEnact({{klass->loid(), k}}, RunOptions{1, 1},
                                [&](Result<RunOutcome> outcome) {
                                  success =
                                      outcome.ok() && outcome->success;
                                });
    world.kernel->RunFor(Duration::Minutes(5));
    result.success += success ? 1.0 : 0.0;
    result.reservations +=
        Count(*world.kernel, "reservations_requested", "enactor");
    result.rethrash += Count(*world.kernel, "rereservations", "enactor");
  }
  result.success = 100.0 * result.success / trials;
  result.reservations /= trials;
  result.rethrash /= trials;
  return result;
}

void RunExperiment() {
  const int trials = 20;
  const std::size_t k = 4;
  Table table("E10 k-of-n scheduling -- k=4 replicas, 16 hosts, 20 trials",
              "n   slack  refuse%  success%  reservations/run  thrash/run");
  table.Begin();
  for (std::size_t n : {4UL, 5UL, 6UL, 8UL, 12UL}) {
    for (double refuse : {0.2, 0.4}) {
      KOfNResult cell = RunCell(k, n, refuse, trials);
      table.Row("%-2zu  %5zu  %7.0f  %7.0f%%  %16.1f  %10.2f", n, n - k,
                refuse * 100.0, cell.success, cell.reservations,
                cell.rethrash);
    }
  }
}

}  // namespace
}  // namespace legion::bench

int main() {
  legion::bench::RunExperiment();
  return 0;
}
