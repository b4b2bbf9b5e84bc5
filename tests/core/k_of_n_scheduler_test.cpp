// "k out of n" scheduling (paper section 3.3 future work, implemented).
#include "core/schedulers/k_of_n_scheduler.h"

#include <gtest/gtest.h>

#include <set>

#include "test_world.h"

namespace legion {
namespace {

using testing::Await;
using testing::Count;
using testing::TestWorld;

class KOfNSchedulerTest : public ::testing::Test {
 protected:
  KOfNSchedulerTest() : world_(testing::TestWorldConfig{.hosts = 6}) {
    world_.Populate();
    klass_ = world_.MakeClass("replica");
  }

  KOfNScheduler* Make(std::size_t n) {
    return world_.kernel.AddActor<KOfNScheduler>(
        world_.kernel.minter().Mint(LoidSpace::kService, 0),
        world_.collection->loid(), world_.enactor->loid(), n);
  }

  Result<ScheduleRequestList> Compute(KOfNScheduler* scheduler,
                                      std::size_t k) {
    Await<ScheduleRequestList> schedule;
    scheduler->ComputeSchedule({{klass_->loid(), k}}, schedule.Sink());
    world_.Run();
    EXPECT_TRUE(schedule.Ready());
    return std::move(schedule.Get());
  }

  TestWorld world_;
  ClassObject* klass_;
};

TEST_F(KOfNSchedulerTest, MasterHasKMappingsOnDistinctHosts) {
  auto schedule = Compute(Make(5), 3);
  ASSERT_TRUE(schedule.ok());
  const MasterSchedule& master = schedule->masters[0];
  ASSERT_EQ(master.mappings.size(), 3u);
  std::set<Loid> hosts;
  for (const auto& mapping : master.mappings) hosts.insert(mapping.host);
  EXPECT_EQ(hosts.size(), 3u);
}

TEST_F(KOfNSchedulerTest, VariantsCoverEveryPositionWithEverySpare) {
  auto schedule = Compute(Make(5), 3);
  ASSERT_TRUE(schedule.ok());
  const MasterSchedule& master = schedule->masters[0];
  // (n-k) spares x k positions single-bit variants.
  EXPECT_EQ(master.variants.size(), (5 - 3) * 3u);
  for (const auto& variant : master.variants) {
    EXPECT_EQ(variant.replaces.Count(), 1u);
    EXPECT_EQ(variant.mappings.size(), 1u);
  }
  EXPECT_TRUE(master.Validate().ok());
}

TEST_F(KOfNSchedulerTest, RejectsBadK) {
  auto zero = Compute(Make(5), 0);
  EXPECT_EQ(zero.code(), ErrorCode::kInvalidArgument);
  auto too_many = Compute(Make(3), 4);
  EXPECT_EQ(too_many.code(), ErrorCode::kInvalidArgument);
}

TEST_F(KOfNSchedulerTest, RejectsMultiClassRequests) {
  auto* other = world_.MakeClass("other");
  auto* scheduler = Make(5);
  Await<ScheduleRequestList> schedule;
  scheduler->ComputeSchedule({{klass_->loid(), 1}, {other->loid(), 1}},
                             schedule.Sink());
  world_.Run();
  EXPECT_EQ(schedule.Get().code(), ErrorCode::kInvalidArgument);
}

TEST_F(KOfNSchedulerTest, FailsWhenFewerThanKHosts) {
  TestWorld small(testing::TestWorldConfig{.hosts = 2});
  small.Populate();
  auto* klass = small.MakeClass("replica");
  auto* scheduler = small.kernel.AddActor<KOfNScheduler>(
      small.kernel.minter().Mint(LoidSpace::kService, 0),
      small.collection->loid(), small.enactor->loid(), 5);
  Await<ScheduleRequestList> schedule;
  scheduler->ComputeSchedule({{klass->loid(), 3}}, schedule.Sink());
  small.Run();
  EXPECT_EQ(schedule.Get().code(), ErrorCode::kNoResources);
}

TEST_F(KOfNSchedulerTest, AnyKOfNHostsSatisfyTheSchedule) {
  // Break two of the three hosts the master picked: the enactor must
  // land on spares and still deliver k instances.
  auto* scheduler = Make(6);
  auto schedule = Compute(scheduler, 3);
  ASSERT_TRUE(schedule.ok());
  const auto& master = schedule->masters[0];
  for (std::size_t i = 0; i < 2; ++i) {
    auto* host = dynamic_cast<HostObject*>(
        world_.kernel.FindActor(master.mappings[i].host));
    ASSERT_NE(host, nullptr);
    host->SetPolicy(std::make_unique<DomainRefusalPolicy>(
        std::vector<std::uint32_t>{0}));
  }
  Await<ScheduleFeedback> feedback;
  world_.enactor->MakeReservations(schedule.value(), feedback.Sink());
  world_.Run();
  ASSERT_TRUE(feedback.Get().ok());
  ASSERT_TRUE(feedback.Get()->success);
  EXPECT_EQ(feedback.Get()->reserved_mappings.size(), 3u);
  // Positions 0 and 1 moved to spare hosts.
  EXPECT_FALSE(feedback.Get()->reserved_mappings[0].host ==
               master.mappings[0].host);
  EXPECT_FALSE(feedback.Get()->reserved_mappings[1].host ==
               master.mappings[1].host);
  // No thrashing: position 2's reservation survived.
  EXPECT_EQ(Count(world_.kernel, "rereservations", "enactor"), 0u);
}

TEST_F(KOfNSchedulerTest, EndToEndReplicaPlacement) {
  auto* scheduler = Make(6);
  Await<RunOutcome> outcome;
  scheduler->ScheduleAndEnact({{klass_->loid(), 4}}, RunOptions{2, 2},
                              outcome.Sink());
  world_.Run();
  ASSERT_TRUE(outcome.Ready());
  EXPECT_TRUE(outcome.Get()->success);
  EXPECT_EQ(klass_->instances().size(), 4u);
}

TEST_F(KOfNSchedulerTest, NonNumericLoadStillSchedules) {
  // Host 0 describes its load as a word; it ranks at the fallback load
  // instead of failing the whole schedule.
  AttributeDatabase busy = world_.hosts[0]->attributes();
  busy.Set("host_load", "busy");
  Await<bool> updated;
  world_.collection->UpdateCollectionEntry(world_.hosts[0]->loid(), busy,
                                           updated.Sink());
  ASSERT_TRUE(*updated.Get());
  auto schedule = Compute(Make(5), 3);
  ASSERT_TRUE(schedule.ok());
  const MasterSchedule& master = schedule->masters[0];
  ASSERT_EQ(master.mappings.size(), 3u);
  std::set<Loid> hosts;
  for (const auto& mapping : master.mappings) hosts.insert(mapping.host);
  EXPECT_EQ(hosts.size(), 3u);
  EXPECT_TRUE(master.Validate().ok());
}

TEST_F(KOfNSchedulerTest, NEqualsKMeansNoVariants) {
  auto schedule = Compute(Make(3), 3);
  ASSERT_TRUE(schedule.ok());
  EXPECT_TRUE(schedule->masters[0].variants.empty());
}

}  // namespace
}  // namespace legion
