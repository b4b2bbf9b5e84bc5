// Chaos sweep (DESIGN.md §9): placement under injected faults, naive vs
// resilient negotiation.
//
// The paper's robustness claim -- "our Legion objects are built to
// accommodate failure at any step in the scheduling process" (§3.1) --
// is only credible under a systematic fault sweep (GridSim's lesson).
// This harness sweeps message-loss rate x partition schedule x retry
// policy over a fixed 4-domain metacomputer and reports, per cell:
//
//   success%          placements that fully enacted
//   time_to_place_ms  mean wall-clock (sim) of successful placements
//   wasted            reservations granted-then-cancelled or failed on
//                     the wire (work the negotiation threw away)
//   retries           transient-failure retries the Enactor issued
//   breaker_open      reservation attempts short-circuited by an open
//                     breaker (no RPC round trip paid)
//
// Policies:
//   naive      RetryPolicy{max_attempts=1}, health tracking off -- the
//              pre-resilience Enactor.
//   resilient  max_attempts=4 with exponential backoff, breaker
//              thresholds tuned for the 2s rpc timeout.
//
// Everything is seeded; two same-seed runs must produce byte-identical
// BENCH_chaos.json (scripts/chaos_sweep.sh enforces this).
#include "bench_util.h"
#include "core/schedulers/irs_scheduler.h"

namespace legion::bench {
namespace {

struct ChaosCell {
  double success_pct = 0.0;
  double time_to_place_ms = 0.0;
  double wasted = 0.0;        // mean per trial
  double retries = 0.0;       // mean per trial
  double breaker_open = 0.0;  // mean per trial
};

ChaosCell RunCell(bool resilient, double loss, bool partition, int trials,
                  int placements) {
  ChaosCell cell;
  int successes = 0;
  int attempts = 0;
  double success_ms = 0.0;
  for (int trial = 0; trial < trials; ++trial) {
    NetworkParams net = QuietNet();
    net.inter_domain_loss = loss;
    net.seed = 7100 + trial;
    MetacomputerConfig config;
    config.domains = 4;
    config.hosts_per_domain = 4;
    config.heterogeneous = false;
    config.seed = 9300 + trial;
    config.load.volatility = 0.0;
    World world = MakeWorld(config, net);

    EnactorOptions& opts = world->enactor()->options();
    opts.rpc_timeout = Duration::Seconds(2);
    if (resilient) {
      opts.retry.max_attempts = 4;
      opts.retry.base_delay = Duration::Millis(500);
      opts.retry.max_delay = Duration::Seconds(4);
      // Thresholds sized so a partitioned domain trips within one
      // placement but uncorrelated loss (retried successfully) does not.
      HealthOptions& health = world->enactor()->health().options();
      health.host_failure_threshold = 3;
      health.domain_failure_threshold = 8;
      health.host_cooldown = Duration::Seconds(30);
      health.domain_cooldown = Duration::Seconds(45);
    } else {
      opts.retry.max_attempts = 1;
      world->enactor()->health().options().enabled = false;
    }
    if (partition) {
      // Domain 3 severed from the service domain for a minute in the
      // middle of the run: reservations into it time out, then heal.
      world.kernel->network().AddPartition(
          0, 3, world.kernel->Now() + Duration::Seconds(20),
          world.kernel->Now() + Duration::Seconds(80));
    }

    ClassObject* klass = world->MakeUniversalClass("chaos_app", 16, 0.1);
    auto* scheduler = world.kernel->AddActor<IrsScheduler>(
        world.kernel->minter().Mint(LoidSpace::kService, 0),
        world->collection()->loid(), world->enactor()->loid(), 4,
        4400 + trial);
    world.kernel->metrics().Reset();

    // A stream of placements paced across the fault window.  Each
    // placement owns its answer: one still negotiating when its window
    // ends answers during a later window, into its own state.
    struct Placement {
      bool success = false;
      SimTime finished;
    };
    for (int p = 0; p < placements; ++p) {
      const SimTime started = world.kernel->Now();
      auto placement = std::make_shared<Placement>();
      scheduler->ScheduleAndEnact(
          {{klass->loid(), 4}}, RunOptions{2, 2},
          [placement, kernel = world.kernel.get()](Result<RunOutcome> outcome) {
            placement->success = outcome.ok() && outcome->success;
            placement->finished = kernel->Now();
          });
      world.kernel->RunFor(Duration::Seconds(30));
      ++attempts;
      if (placement->success) {
        ++successes;
        success_ms += (placement->finished - started).millis();
      }
    }
    const SimKernel& kernel = *world.kernel;
    cell.wasted += Count(kernel, "reservations_cancelled", "enactor") +
                   Count(kernel, "reservations_failed", "enactor");
    cell.retries += Count(kernel, "retries", "enactor");
    cell.breaker_open += Count(kernel, "breaker_open", "enactor");
  }
  cell.success_pct = 100.0 * successes / attempts;
  cell.time_to_place_ms = successes > 0 ? success_ms / successes : 0.0;
  cell.wasted /= trials;
  cell.retries /= trials;
  cell.breaker_open /= trials;
  return cell;
}

void RunExperiment() {
  const bool smoke = SmokePreset();
  const int trials = smoke ? 2 : 6;
  const int placements = smoke ? 3 : 6;
  const std::vector<double> losses =
      smoke ? std::vector<double>{0.0, 0.05}
            : std::vector<double>{0.0, 0.05, 0.10};
  const std::vector<bool> partitions =
      smoke ? std::vector<bool>{false} : std::vector<bool>{false, true};

  Table table("Chaos sweep -- placement under loss/partitions, naive vs "
              "resilient negotiation (4 domains x 4 hosts, k=4)",
              "policy     loss%  partition  success%  time_to_place_ms  "
              "wasted/run  retries/run  breaker_open/run");
  table.EnableJson("chaos",
                   {"policy", "loss_pct", "partition", "success_pct",
                    "time_to_place_ms", "wasted_per_run", "retries_per_run",
                    "breaker_open_per_run"});
  table.Begin();
  for (double loss : losses) {
    for (bool partition : partitions) {
      for (bool resilient : {false, true}) {
        ChaosCell cell =
            RunCell(resilient, loss, partition, trials, placements);
        table.Row("%-9s  %5.0f  %9s  %7.1f%%  %16.1f  %10.1f  %11.1f  %16.1f",
                  {resilient ? "resilient" : "naive", loss * 100.0,
                   partition ? "mid-run" : "none", cell.success_pct,
                   cell.time_to_place_ms, cell.wasted, cell.retries,
                   cell.breaker_open});
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
