// Experiment E5: push/pull freshness vs placement quality.
//
// The Data Collection Daemon polls hosts on a period and pushes into the
// Collection; between polls the records go stale.  A load-aware
// scheduler choosing from stale records picks hosts that *were* idle.
// Sweep the poll period against volatile background load and report the
// mean record age and the placement regret (actual load of the chosen
// host minus the minimum actual load at decision time).  Expected shape:
// regret grows monotonically with the poll period; the function-injected
// forecast_load() recovers part of the gap.
#include "bench_util.h"
#include "core/dcd.h"
#include "core/schedulers/ranked_scheduler.h"

namespace legion::bench {
namespace {

struct StalenessResult {
  double mean_age_s = 0.0;
  double mean_regret = 0.0;
  int placements = 0;
};

StalenessResult RunCell(Duration poll_period, bool use_forecast) {
  MetacomputerConfig config;
  config.domains = 2;
  config.hosts_per_domain = 8;
  config.heterogeneous = false;
  config.seed = 4242;
  // Volatile but autocorrelated background load; per-host means differ
  // so the forecaster has structure to learn.
  config.load.volatility = 0.25;
  config.load.reversion = 0.15;
  config.randomize_load_mean = true;
  config.reassess_period = Duration::Seconds(5);
  config.start_reassessment = true;
  World world = MakeWorld(config);
  // Pull-only configuration: hosts keep reassessing (their load models
  // evolve and their local attributes stay fresh) but push nowhere; the
  // DCD is the only conduit into the Collection, so its poll period
  // controls record freshness.
  for (auto* host : world->hosts()) host->ClearCollections();

  DcdOptions dcd_options;
  dcd_options.poll_period = poll_period;
  auto* dcd = world.kernel->AddActor<DataCollectionDaemon>(
      world.kernel->minter().Mint(LoidSpace::kService, 0), dcd_options);
  for (auto* host : world->hosts()) dcd->WatchResource(host->loid());
  dcd->AddCollection(world->collection());
  dcd->InstallForecastFunction(world->collection());
  dcd->Start();

  ClassObject* klass = world->MakeUniversalClass("probe", 16, 0.01);
  auto* scheduler = world.kernel->AddActor<LoadAwareScheduler>(
      world.kernel->minter().Mint(LoidSpace::kService, 0),
      world->collection()->loid(), world->enactor()->loid(), use_forecast);

  StalenessResult result;
  double age_accum = 0.0;
  int age_samples = 0;
  // Warm the history, then place repeatedly and measure regret.
  world.kernel->RunFor(Duration::Minutes(5));
  for (int round = 0; round < 20; ++round) {
    world.kernel->RunFor(Duration::Seconds(37));
    bool done = false;
    Loid chosen;
    scheduler->ComputeSchedule(
        {{klass->loid(), 1}},
        [&](Result<ScheduleRequestList> schedule) {
          done = true;
          if (schedule.ok() && !schedule->masters.empty() &&
              !schedule->masters[0].mappings.empty()) {
            chosen = schedule->masters[0].mappings[0].host;
          }
        });
    world.kernel->RunFor(Duration::Seconds(20));
    if (!done || !chosen.valid()) continue;
    // Regret against ground truth *now*.
    double chosen_load = 0.0, min_load = 1e18;
    for (auto* host : world->hosts()) {
      const double load = host->CurrentLoad();
      min_load = std::min(min_load, load);
      if (host->loid() == chosen) chosen_load = load;
    }
    result.mean_regret += chosen_load - min_load;
    ++result.placements;
    age_accum += world->collection()->MeanRecordAge().seconds();
    ++age_samples;
  }
  if (result.placements > 0) result.mean_regret /= result.placements;
  if (age_samples > 0) result.mean_age_s = age_accum / age_samples;
  return result;
}

void RunExperiment() {
  Table table("E5 Collection staleness -- DCD poll period vs load-aware "
              "placement regret (16 hosts, volatile load)",
              "poll_period_s  forecast  mean_record_age_s  mean_regret");
  table.EnableJson("staleness", {"poll_period_s", "forecast",
                                 "mean_record_age_s", "mean_regret"});
  table.Begin();
  for (double period_s : {5.0, 15.0, 60.0, 180.0}) {
    for (bool forecast : {false, true}) {
      StalenessResult cell =
          RunCell(Duration::Seconds(period_s), forecast);
      table.Row("%13.0f  %8s  %17.1f  %11.3f",
                {period_s, forecast ? "yes" : "no", cell.mean_age_s,
                 cell.mean_regret});
    }
  }
}

}  // namespace
}  // namespace legion::bench

int main() {
  legion::bench::RunExperiment();
  return 0;
}
