// The candidate pipeline every placement policy shares (SchedulerObject's
// pool query and per-class walk): each policy reports a failed pool the
// same way, and a multi-class request keeps its classes in request order.
#include <gtest/gtest.h>

#include <functional>
#include <ostream>
#include <string>

#include "core/schedulers/irs_scheduler.h"
#include "core/schedulers/k_of_n_scheduler.h"
#include "core/schedulers/random_scheduler.h"
#include "core/schedulers/ranked_scheduler.h"
#include "core/schedulers/stencil_scheduler.h"
#include "test_world.h"

namespace legion {
namespace {

using testing::Await;
using testing::TestWorld;

// One policy under test: how to build it and how many instances of one
// class it accepts.
struct Policy {
  std::string name;
  std::function<SchedulerObject*(TestWorld&)> make;
  std::size_t count;
};

void PrintTo(const Policy& policy, std::ostream* os) { *os << policy.name; }

template <typename T, typename... Args>
std::function<SchedulerObject*(TestWorld&)> Maker(Args... args) {
  return [=](TestWorld& world) -> SchedulerObject* {
    return world.kernel.AddActor<T>(
        world.kernel.minter().Mint(LoidSpace::kService, 0),
        world.collection->loid(), world.enactor->loid(), args...);
  };
}

class SchedulerPoolTest : public ::testing::TestWithParam<Policy> {
 protected:
  SchedulerPoolTest() : world_(testing::TestWorldConfig{.hosts = 4}) {
    world_.Populate();
    scheduler_ = GetParam().make(world_);
  }

  Result<ScheduleRequestList> Compute(const PlacementRequest& request) {
    Await<ScheduleRequestList> schedule;
    scheduler_->ComputeSchedule(request, schedule.Sink());
    world_.Run();
    EXPECT_TRUE(schedule.Ready());
    return std::move(schedule.Get());
  }

  TestWorld world_;
  SchedulerObject* scheduler_;
};

TEST_P(SchedulerPoolTest, UnreachableCollectionFailsUnavailable) {
  ClassObject* klass = world_.MakeClass("app");
  scheduler_->RouteQueries(Loid(LoidSpace::kService, 0, 424242));  // nothing
  auto schedule = Compute({{klass->loid(), GetParam().count}});
  ASSERT_FALSE(schedule.ok());
  EXPECT_EQ(schedule.code(), ErrorCode::kUnavailable)
      << schedule.status().ToString();
}

TEST_P(SchedulerPoolTest, ImplementationNoHostRunsFailsNoResources) {
  Implementation sparc;
  sparc.arch = "sparc";
  sparc.os_name = "Solaris";
  auto* klass = world_.kernel.AddActor<ClassObject>(
      Loid(LoidSpace::kClass, 0, 900), "orphan",
      std::vector<Implementation>{sparc});
  world_.kernel.network().RegisterEndpoint(klass->loid(), 0);
  auto schedule = Compute({{klass->loid(), GetParam().count}});
  ASSERT_FALSE(schedule.ok());
  EXPECT_EQ(schedule.code(), ErrorCode::kNoResources)
      << schedule.status().ToString();
}

// The policies that place several classes through the per-class walk.
class SchedulerWalkTest : public SchedulerPoolTest {};

TEST_P(SchedulerWalkTest, ClassesKeepRequestOrderInMasterAndVariants) {
  ClassObject* a = world_.MakeClass("a");
  ClassObject* b = world_.MakeClass("b");
  auto schedule = Compute({{a->loid(), 3}, {b->loid(), 2}});
  ASSERT_TRUE(schedule.ok()) << schedule.status().ToString();
  ASSERT_EQ(schedule->masters.size(), 1u);
  const MasterSchedule& master = schedule->masters[0];
  EXPECT_TRUE(master.Validate().ok());
  ASSERT_EQ(master.mappings.size(), 5u);
  // Random makes one-entry choice lists, so it alone has no variants.
  EXPECT_EQ(master.variants.empty(), GetParam().name == "Random");
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(master.mappings[i].class_loid, i < 3 ? a->loid() : b->loid())
        << "slot " << i;
  }
  for (const VariantSchedule& variant : master.variants) {
    EXPECT_EQ(variant.replaces.size(), 5u);
    for (const auto& [index, mapping] : variant.mappings) {
      ASSERT_LT(index, 5u);
      EXPECT_TRUE(variant.replaces.Test(index));
      EXPECT_EQ(mapping.class_loid, master.mappings[index].class_loid)
          << "slot " << index;
    }
  }
}

const Policy kRandom{"Random", Maker<RandomScheduler>(std::uint64_t{3}), 2};
const Policy kIrs{"Irs", Maker<IrsScheduler>(std::size_t{4}, std::uint64_t{3}),
                  2};
const Policy kLoadAware{"LoadAware", Maker<LoadAwareScheduler>(), 2};
const Policy kKOfN{"KOfN", Maker<KOfNScheduler>(std::size_t{4}), 2};
const Policy kStencil{
    "Stencil", Maker<StencilScheduler>(std::size_t{2}, std::size_t{2}), 4};

std::string PolicyName(const ::testing::TestParamInfo<Policy>& info) {
  return info.param.name;
}

INSTANTIATE_TEST_SUITE_P(Policies, SchedulerPoolTest,
                         ::testing::Values(kRandom, kIrs, kLoadAware, kKOfN,
                                           kStencil),
                         PolicyName);
INSTANTIATE_TEST_SUITE_P(Policies, SchedulerWalkTest,
                         ::testing::Values(kRandom, kIrs, kLoadAware),
                         PolicyName);

}  // namespace
}  // namespace legion
