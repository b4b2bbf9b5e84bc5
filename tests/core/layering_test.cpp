// Resource-management layering (paper figure 2): all four layerings
// deliver the same placement; the separation costs messages.
#include "core/layering.h"

#include <gtest/gtest.h>

#include "core/schedulers/random_scheduler.h"
#include "test_world.h"

namespace legion {
namespace {

using testing::Await;
using testing::Count;
using testing::TestWorld;

class LayeringTest : public ::testing::Test {
 protected:
  LayeringTest() : world_(testing::TestWorldConfig{.hosts = 4}) {
    world_.Populate();
    klass_ = world_.MakeClass("app");
    scheduler_ = world_.kernel.AddActor<RandomScheduler>(
        world_.kernel.minter().Mint(LoidSpace::kService, 0),
        world_.collection->loid(), world_.enactor->loid(), /*seed=*/31);
    // The combined (c) module is a coordinator running mode (a) remotely.
    combined_ = MakeCoordinator(Layering::kApplicationDoesAll);
  }

  ApplicationCoordinator* MakeCoordinator(Layering layering) {
    ApplicationCoordinator::Wiring wiring;
    wiring.collection = world_.collection->loid();
    wiring.enactor = world_.enactor->loid();
    wiring.scheduler = scheduler_->loid();
    wiring.combined_service = combined_ != nullptr ? combined_->loid() : Loid();
    return world_.kernel.AddActor<ApplicationCoordinator>(
        world_.kernel.minter().Mint(LoidSpace::kService, 0), layering,
        wiring, /*seed=*/17);
  }

  PlacementTrace Place(Layering layering, std::size_t count = 2) {
    auto* app = MakeCoordinator(layering);
    Await<PlacementTrace> trace;
    app->Place({{klass_->loid(), count}}, trace.Sink());
    world_.Run();
    EXPECT_TRUE(trace.Ready()) << ToString(layering);
    return trace.Ready() && trace.Get().ok() ? *trace.Get()
                                             : PlacementTrace{};
  }

  TestWorld world_;
  ClassObject* klass_;
  RandomScheduler* scheduler_;
  ApplicationCoordinator* combined_ = nullptr;
};

TEST_F(LayeringTest, AllFourLayeringsPlaceSuccessfully) {
  for (Layering layering :
       {Layering::kApplicationDoesAll, Layering::kApplicationPlusRm,
        Layering::kCombinedModule, Layering::kSeparateModules}) {
    PlacementTrace trace = Place(layering);
    EXPECT_TRUE(trace.success) << ToString(layering);
    EXPECT_EQ(trace.instances_started, 2u) << ToString(layering);
    EXPECT_GT(trace.latency, Duration::Zero()) << ToString(layering);
  }
  EXPECT_EQ(klass_->instances().size(), 8u);
}

TEST_F(LayeringTest, SeparationCostsMessages) {
  // C1: "cost that scales with capability" -- each extra module adds
  // messages for the same logical placement.
  auto messages_for = [&](Layering layering) -> std::uint64_t {
    world_.kernel.metrics().Reset();
    PlacementTrace trace = Place(layering);
    EXPECT_TRUE(trace.success) << ToString(layering);
    return Count(world_.kernel, "messages_sent", "kernel");
  };
  const std::uint64_t does_all =
      messages_for(Layering::kApplicationDoesAll);
  const std::uint64_t combined = messages_for(Layering::kCombinedModule);
  const std::uint64_t separate =
      messages_for(Layering::kSeparateModules);
  // (c) = (a) plus the app<->service round trip.
  EXPECT_GT(combined, does_all);
  // (d) adds the scheduler and enactor hops on top.
  EXPECT_GT(separate, does_all);
}

TEST_F(LayeringTest, DoesAllNegotiatesDirectlyWithHosts) {
  world_.kernel.metrics().Reset();
  PlacementTrace trace = Place(Layering::kApplicationDoesAll);
  EXPECT_TRUE(trace.success);
  // The Enactor was never involved.
  EXPECT_EQ(Count(world_.kernel, "negotiations", "enactor"), 0u);
}

TEST_F(LayeringTest, PlusRmDelegatesNegotiationToEnactor) {
  world_.kernel.metrics().Reset();
  PlacementTrace trace = Place(Layering::kApplicationPlusRm);
  EXPECT_TRUE(trace.success);
  EXPECT_EQ(Count(world_.kernel, "negotiations", "enactor"), 1u);
}

TEST_F(LayeringTest, SeparateModulesGoThroughScheduler) {
  const auto lookups = scheduler_->collection_lookups();
  PlacementTrace trace = Place(Layering::kSeparateModules);
  EXPECT_TRUE(trace.success);
  EXPECT_GT(scheduler_->collection_lookups(), lookups);
}

TEST_F(LayeringTest, FailureSurfacesAsUnsuccessfulTrace) {
  for (auto* host : world_.hosts) {
    host->SetPolicy(std::make_unique<DomainRefusalPolicy>(
        std::vector<std::uint32_t>{0}));
  }
  PlacementTrace trace = Place(Layering::kApplicationDoesAll);
  EXPECT_FALSE(trace.success);
}

}  // namespace
}  // namespace legion
