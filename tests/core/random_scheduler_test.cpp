// The Random Scheduling Policy (paper figure 7).
#include "core/schedulers/random_scheduler.h"

#include <gtest/gtest.h>

#include <set>

#include "test_world.h"

namespace legion {
namespace {

using testing::Await;
using testing::Count;
using testing::TestWorld;

class RandomSchedulerTest : public ::testing::Test {
 protected:
  RandomSchedulerTest() : world_(testing::TestWorldConfig{.hosts = 4}) {
    world_.Populate();
    klass_ = world_.MakeClass("app");
    scheduler_ = world_.kernel.AddActor<RandomScheduler>(
        world_.kernel.minter().Mint(LoidSpace::kService, 0),
        world_.collection->loid(), world_.enactor->loid(), /*seed=*/3);
  }

  Result<ScheduleRequestList> Compute(const PlacementRequest& request) {
    Await<ScheduleRequestList> schedule;
    scheduler_->ComputeSchedule(request, schedule.Sink());
    world_.Run();
    EXPECT_TRUE(schedule.Ready());
    return std::move(schedule.Get());
  }

  TestWorld world_;
  ClassObject* klass_;
  RandomScheduler* scheduler_;
};

TEST_F(RandomSchedulerTest, GeneratesOneMappingPerInstance) {
  auto schedule = Compute({{klass_->loid(), 5}});
  ASSERT_TRUE(schedule.ok());
  ASSERT_EQ(schedule->masters.size(), 1u);
  EXPECT_EQ(schedule->masters[0].mappings.size(), 5u);
  // Figure 7 generates a single master with no variants.
  EXPECT_TRUE(schedule->masters[0].variants.empty());
  EXPECT_TRUE(schedule->masters[0].Validate().ok());
}

TEST_F(RandomSchedulerTest, MappingsNameRealHostsAndTheirVaults) {
  auto schedule = Compute({{klass_->loid(), 8}});
  ASSERT_TRUE(schedule.ok());
  for (const ObjectMapping& mapping : schedule->masters[0].mappings) {
    EXPECT_EQ(mapping.class_loid, klass_->loid());
    auto* host =
        dynamic_cast<HostObject*>(world_.kernel.FindActor(mapping.host));
    ASSERT_NE(host, nullptr);
    // The chosen vault came from that host's compatible list.
    Await<std::vector<Loid>> vaults;
    host->GetCompatibleVaults(vaults.Sink());
    const auto& list = *vaults.Get();
    EXPECT_NE(std::find(list.begin(), list.end(), mapping.vault), list.end());
  }
}

TEST_F(RandomSchedulerTest, MultiClassRequestsConcatenate) {
  auto* other = world_.MakeClass("other");
  auto schedule = Compute({{klass_->loid(), 2}, {other->loid(), 3}});
  ASSERT_TRUE(schedule.ok());
  const auto& mappings = schedule->masters[0].mappings;
  ASSERT_EQ(mappings.size(), 5u);
  EXPECT_EQ(mappings[0].class_loid, klass_->loid());
  EXPECT_EQ(mappings[1].class_loid, klass_->loid());
  for (std::size_t i = 2; i < 5; ++i) {
    EXPECT_EQ(mappings[i].class_loid, other->loid());
  }
}

TEST_F(RandomSchedulerTest, RandomnessSpreadsAcrossHosts) {
  auto schedule = Compute({{klass_->loid(), 40}});
  ASSERT_TRUE(schedule.ok());
  std::set<Loid> hosts;
  for (const auto& mapping : schedule->masters[0].mappings) {
    hosts.insert(mapping.host);
  }
  // 40 draws over 4 hosts: overwhelmingly likely to touch all of them.
  EXPECT_EQ(hosts.size(), 4u);
}

TEST_F(RandomSchedulerTest, IgnoresLoadEntirely) {
  // "There is no consideration of load" -- a pathologically loaded host
  // is still drawn.
  world_.hosts[0]->SpikeLoad(4.0);
  world_.Populate();
  auto schedule = Compute({{klass_->loid(), 40}});
  ASSERT_TRUE(schedule.ok());
  bool drew_loaded_host = false;
  for (const auto& mapping : schedule->masters[0].mappings) {
    if (mapping.host == world_.hosts[0]->loid()) drew_loaded_host = true;
  }
  EXPECT_TRUE(drew_loaded_host);
}

TEST_F(RandomSchedulerTest, FailsWhenNoHostMatchesImplementations) {
  std::vector<Implementation> impls;
  Implementation impl;
  impl.arch = "cray";  // nothing in the world runs this
  impl.os_name = "UNICOS";
  impls.push_back(impl);
  auto* exotic = world_.kernel.AddActor<ClassObject>(
      Loid(LoidSpace::kClass, 0, 300), "exotic", impls);
  world_.kernel.network().RegisterEndpoint(exotic->loid(), 0);
  auto schedule = Compute({{exotic->loid(), 1}});
  EXPECT_FALSE(schedule.ok());
  EXPECT_EQ(schedule.code(), ErrorCode::kNoResources);
}

TEST_F(RandomSchedulerTest, EmptyCollectionFails) {
  TestWorld empty_world;
  auto* scheduler = empty_world.kernel.AddActor<RandomScheduler>(
      empty_world.kernel.minter().Mint(LoidSpace::kService, 0),
      empty_world.collection->loid(), empty_world.enactor->loid());
  auto* klass = empty_world.MakeClass("app");
  Await<ScheduleRequestList> schedule;
  scheduler->ComputeSchedule({{klass->loid(), 1}}, schedule.Sink());
  empty_world.Run();
  EXPECT_FALSE(schedule.Get().ok());
}

TEST_F(RandomSchedulerTest, FullPipelinePlacesInstances) {
  Await<RunOutcome> outcome;
  scheduler_->ScheduleAndEnact({{klass_->loid(), 3}}, RunOptions{3, 2},
                               outcome.Sink());
  world_.Run();
  ASSERT_TRUE(outcome.Ready());
  ASSERT_TRUE(outcome.Get().ok());
  EXPECT_TRUE(outcome.Get()->success);
  EXPECT_EQ(klass_->instances().size(), 3u);
}

TEST_F(RandomSchedulerTest, CountsCollectionLookups) {
  auto lookups = [&] {
    return Count(world_.kernel, "collection_lookups",
                 {{"component", "scheduler"}, {"scheduler", "random"}});
  };
  EXPECT_EQ(lookups(), 0u);
  Compute({{klass_->loid(), 4}});
  EXPECT_EQ(lookups(), 1u);
  Compute({{klass_->loid(), 4}});
  EXPECT_EQ(lookups(), 2u);
}

}  // namespace
}  // namespace legion
