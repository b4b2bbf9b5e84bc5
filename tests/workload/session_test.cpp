#include "workload/session.h"

#include <gtest/gtest.h>

#include "core/schedulers/ranked_scheduler.h"
#include "test_world.h"
#include "workload/arrivals.h"

namespace legion {
namespace {

using testing::Count;

NetworkParams QuietNet() {
  NetworkParams params;
  params.jitter_fraction = 0.0;
  return params;
}

class SessionTest : public ::testing::Test {
 protected:
  SessionTest() : kernel_(QuietNet()) {
    MetacomputerConfig config;
    config.domains = 2;
    config.hosts_per_domain = 6;
    config.heterogeneous = false;
    config.seed = 77;
    config.load.initial = 0.0;
    config.load.mean = 0.0;
    config.load.volatility = 0.0;
    metacomputer_ = std::make_unique<Metacomputer>(&kernel_, config);
    metacomputer_->PopulateCollection();
    scheduler_ = kernel_.AddActor<LoadAwareScheduler>(
        kernel_.minter().Mint(LoidSpace::kService, 0),
        metacomputer_->collection()->loid(),
        metacomputer_->enactor()->loid());
    session_ =
        std::make_unique<WorkloadSession>(metacomputer_.get(), scheduler_);
  }

  SimKernel kernel_;
  std::unique_ptr<Metacomputer> metacomputer_;
  LoadAwareScheduler* scheduler_;
  std::unique_ptr<WorkloadSession> session_;
};

TEST_F(SessionTest, SingleAppRunsAndCompletes) {
  ApplicationSpec app = MakeParameterStudy(4, /*work=*/1000.0);
  session_->Submit(app);
  kernel_.RunFor(Duration::Hours(1));
  ASSERT_EQ(session_->results().size(), 1u);
  const SessionAppResult& result = session_->results()[0];
  EXPECT_TRUE(result.placed);
  EXPECT_GT(result.finished_at, result.placed_at);
  // ~1000 MIPS-s on 50-500 MIPS hosts: turnaround seconds-to-minutes.
  EXPECT_GT(result.turnaround().seconds(), 1.0);
  EXPECT_LT(result.turnaround().seconds(), 600.0);
  // Hosts were freed at completion.
  for (auto* host : metacomputer_->hosts()) {
    EXPECT_EQ(host->running_count(), 0u);
  }
}

// The wall-clock benchmark reads these registry cells by name and takes a
// missing one as 0, so a renamed cell would silently zero its metric.
// The fixture has the benchmark's shape: a Metacomputer, a load-aware
// scheduler and a session.
TEST_F(SessionTest, RegistryHoldsEveryCellTheBenchmarkReads) {
  session_->Submit(MakeParameterStudy(4, /*work=*/1000.0));
  kernel_.RunFor(Duration::Hours(1));
  const SessionStats stats = session_->Stats(Duration::Hours(1));
  ASSERT_EQ(stats.completed, 1u);

  // Count fails the test when a cell does not exist.
  for (const char* name : {"events_run", "messages_sent", "messages_dropped",
                           "bytes_sent", "rpcs_started", "rpcs_timed_out"}) {
    Count(kernel_, name, "kernel");
  }
  for (const char* name :
       {"reservations_requested", "reservations_granted", "reservations_failed",
        "reservations_cancelled", "rereservations", "batches_sent",
        "batched_slots", "retries", "requests_parked"}) {
    Count(kernel_, name, "enactor");
  }
  for (const char* name :
       {"updates_applied", "queries_served", "index_hits", "planner_fallbacks",
        "compile_cache_hits", "compile_cache_misses"}) {
    Count(kernel_, name, "collection");
  }
  const obs::MetricsSnapshot snapshot = kernel_.metrics().Snapshot();
  const obs::Labels scheduler = {{"component", "scheduler"},
                                 {"scheduler", "load-aware"}};
  for (const char* name : {"scheduler_runs", "collection_lookups",
                           "mappings_unplaced", "suspects_skipped"}) {
    const std::string key = obs::MetricsRegistry::CellKey(name, scheduler);
    EXPECT_EQ(snapshot.counters.count(key), 1u) << key;
  }
  for (const char* name :
       {"collection_query_wall_us", "collection_staleness_ms"}) {
    const auto it = snapshot.histograms.find(
        obs::MetricsRegistry::CellKey(name, {{"component", "collection"}}));
    ASSERT_NE(it, snapshot.histograms.end()) << name;
    EXPECT_GT(it->second.count, 0u) << name;
  }
  EXPECT_EQ(Count(kernel_, "apps_offered", "session"), stats.offered);
  EXPECT_EQ(Count(kernel_, "apps_placed", "session"), stats.placed);
  EXPECT_EQ(Count(kernel_, "apps_completed", "session"), stats.completed);
}

TEST_F(SessionTest, CompletionFreesCapacityForLaterArrivals) {
  // Apps sized so two can never run together (instances = all hosts,
  // full CPU).  Sequential arrivals must both complete.
  ApplicationSpec big = MakeParameterStudy(12, /*work=*/500.0);
  big.cpu_fraction_per_instance = 1.0;
  std::vector<SimTime> arrivals{kernel_.Now() + Duration::Seconds(1),
                                kernel_.Now() + Duration::Minutes(20)};
  session_->SubmitAt(big, arrivals);
  kernel_.RunFor(Duration::Hours(2));
  SessionStats stats = session_->Stats(Duration::Hours(2));
  EXPECT_EQ(stats.offered, 2u);
  EXPECT_EQ(stats.completed, 2u);
}

TEST_F(SessionTest, OverloadRejectsSomeApps) {
  // A burst far beyond capacity: placements fail once CPUs are committed.
  ApplicationSpec app = MakeParameterStudy(8, /*work=*/50000.0);
  app.cpu_fraction_per_instance = 1.0;
  std::vector<SimTime> arrivals;
  for (int i = 0; i < 10; ++i) {
    arrivals.push_back(kernel_.Now() + Duration::Seconds(5 + i));
  }
  session_->SubmitAt(app, arrivals);
  kernel_.RunFor(Duration::Minutes(30));
  SessionStats stats = session_->Stats(Duration::Minutes(30));
  EXPECT_EQ(stats.offered, 10u);
  EXPECT_LT(stats.placed, 10u);  // some were refused
  EXPECT_GT(stats.placed, 0u);
}

TEST_F(SessionTest, StatsAggregateSanely) {
  ApplicationSpec app = MakeParameterStudy(2, /*work=*/500.0);
  app.cpu_fraction_per_instance = 0.25;
  std::vector<SimTime> arrivals;
  Rng rng(5);
  for (const SimTime& t :
       PoissonArrivals(rng, 1.0 / 60.0, kernel_.Now(), Duration::Hours(1))) {
    arrivals.push_back(t);
  }
  session_->SubmitAt(app, arrivals);
  kernel_.RunFor(Duration::Hours(2));
  SessionStats stats = session_->Stats(Duration::Hours(2));
  EXPECT_EQ(stats.offered, arrivals.size());
  EXPECT_GT(stats.completed, 0u);
  EXPECT_LE(stats.completed, stats.placed);
  EXPECT_GE(stats.p95_turnaround_s, stats.mean_turnaround_s * 0.5);
  EXPECT_GT(stats.throughput_per_hour, 0.0);
  EXPECT_GE(stats.mean_turnaround_s, stats.mean_wait_s);
}

TEST_F(SessionTest, PoissonArrivalsRespectHorizon) {
  Rng rng(9);
  auto arrivals = PoissonArrivals(rng, 0.1, SimTime(1000), Duration::Minutes(10));
  for (const SimTime& t : arrivals) {
    EXPECT_GE(t, SimTime(1000));
    EXPECT_LT(t, SimTime(1000) + Duration::Minutes(10));
  }
  // Rough rate check: 0.1/s over 600s => ~60 arrivals.
  EXPECT_GT(arrivals.size(), 30u);
  EXPECT_LT(arrivals.size(), 100u);
  // Zero rate: none.
  EXPECT_TRUE(PoissonArrivals(rng, 0.0, SimTime(0), Duration::Hours(1)).empty());
}

}  // namespace
}  // namespace legion
