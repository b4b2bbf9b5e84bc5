// The Data Collection Daemon (paper 3.2 footnote): pull from hosts, push
// into collections; plus the function-injection forecast demo.
#include "core/dcd.h"

#include <gtest/gtest.h>

#include "test_world.h"

namespace legion {
namespace {

using testing::Await;
using testing::Count;
using testing::TestWorld;

class DcdTest : public ::testing::Test {
 protected:
  DcdTest() : world_() {
    DcdOptions options;
    options.poll_period = Duration::Seconds(10);
    options.history_length = 16;
    dcd_ = world_.kernel.AddActor<DataCollectionDaemon>(
        world_.kernel.minter().Mint(LoidSpace::kService, 0), options);
    for (auto* host : world_.hosts) dcd_->WatchResource(host->loid());
    dcd_->AddCollection(world_.collection);
  }

  TestWorld world_;
  DataCollectionDaemon* dcd_;
};

TEST_F(DcdTest, PullPushPopulatesCollection) {
  EXPECT_EQ(world_.collection->record_count(), 0u);
  dcd_->PollNow();
  world_.Run();
  EXPECT_EQ(world_.collection->record_count(), world_.hosts.size());
  auto result = world_.collection->QueryLocal("$host_arch == \"x86\"");
  EXPECT_EQ(result->size(), world_.hosts.size());
}

TEST_F(DcdTest, DaemonIsTrustedThirdParty) {
  // The DCD's pushes are third-party updates; AddCollection trusted it.
  dcd_->PollNow();
  world_.Run();
  EXPECT_EQ(Count(world_.kernel, "updates_rejected", "collection"), 0u);
  EXPECT_GE(Count(world_.kernel, "updates_applied", "collection"),
            world_.hosts.size());
}

TEST_F(DcdTest, PeriodicPollingRefreshes) {
  dcd_->Start();
  world_.kernel.RunFor(Duration::Minutes(1));
  dcd_->Stop();
  EXPECT_GE(dcd_->polls_completed(), 5u);
  // Stale data ages only between polls.
  EXPECT_LT(world_.collection->MeanRecordAge(), Duration::Seconds(15));
}

TEST_F(DcdTest, StopActuallyStops) {
  dcd_->Start();
  world_.kernel.RunFor(Duration::Seconds(25));
  dcd_->Stop();
  const auto polls = dcd_->polls_completed();
  world_.kernel.RunFor(Duration::Minutes(5));
  EXPECT_EQ(dcd_->polls_completed(), polls);
}

TEST_F(DcdTest, BuildsLoadHistory) {
  for (int i = 0; i < 6; ++i) {
    dcd_->PollNow();
    world_.Run();
  }
  const auto* history = dcd_->HistoryFor(world_.hosts[0]->loid());
  ASSERT_NE(history, nullptr);
  EXPECT_EQ(history->size(), 6u);
}

TEST_F(DcdTest, HistoryIsBounded) {
  for (int i = 0; i < 30; ++i) {
    dcd_->PollNow();
    world_.Run();
  }
  const auto* history = dcd_->HistoryFor(world_.hosts[0]->loid());
  ASSERT_NE(history, nullptr);
  EXPECT_EQ(history->size(), 16u);  // options.history_length
}

TEST_F(DcdTest, ForecastFallsBackGracefully) {
  // No history at all: 0.  Short history: last observation.
  EXPECT_DOUBLE_EQ(dcd_->ForecastLoad(world_.hosts[0]->loid()), 0.0);
  world_.hosts[0]->SpikeLoad(1.5);
  dcd_->PollNow();
  world_.Run();
  EXPECT_NEAR(dcd_->ForecastLoad(world_.hosts[0]->loid()), 1.5, 0.01);
}

TEST_F(DcdTest, ForecastTracksPersistentLoad) {
  // Under a constant load the AR(1) forecast converges to that load.
  world_.hosts[0]->SpikeLoad(2.0);
  for (int i = 0; i < 12; ++i) {
    world_.hosts[0]->mutable_attributes().Set("host_load", 2.0);
    dcd_->PollNow();
    world_.Run();
  }
  EXPECT_NEAR(dcd_->ForecastLoad(world_.hosts[0]->loid()), 2.0, 0.1);
}

TEST_F(DcdTest, ForecastFunctionInjection) {
  // The NWS-style hook: forecast_load() usable inside queries.
  dcd_->InstallForecastFunction(world_.collection);
  world_.hosts[0]->SpikeLoad(3.0);
  for (int i = 0; i < 8; ++i) {
    world_.hosts[0]->mutable_attributes().Set("host_load", 3.0);
    dcd_->PollNow();
    world_.Run();
  }
  auto hot = world_.collection->QueryLocal("forecast_load() > 2.0");
  ASSERT_TRUE(hot.ok());
  ASSERT_EQ(hot->size(), 1u);
  EXPECT_EQ((*hot)[0].member, world_.hosts[0]->loid());
  auto cool = world_.collection->QueryLocal("forecast_load() <= 2.0");
  EXPECT_EQ(cool->size(), world_.hosts.size() - 1);
}

TEST_F(DcdTest, DeadResourceSkippedDuringPoll) {
  dcd_->WatchResource(Loid(LoidSpace::kHost, 0, 4242));
  dcd_->PollNow();
  world_.Run();
  // The live hosts still made it in.
  EXPECT_EQ(world_.collection->record_count(), world_.hosts.size());
}

}  // namespace
}  // namespace legion
