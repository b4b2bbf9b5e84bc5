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

TEST_F(LayeringTest, DoesAllRequestsTheSameHoldAsTheEnactor) {
  // Mode (a) negotiates without the Enactor, but a hold it takes for a
  // mapping must carry what the Enactor's hold for that mapping carries.
  ClassObject* demanding =
      world_.MakeClass("demanding", /*memory_mb=*/96, /*cpu_fraction=*/0.25);
  auto* app = MakeCoordinator(Layering::kApplicationDoesAll);
  Await<PlacementTrace> trace;
  app->Place({{demanding->loid(), 1}}, trace.Sink());
  world_.Run();
  ASSERT_TRUE(trace.Ready() && trace.Get().ok());
  ASSERT_TRUE(trace.Get()->success);
  ASSERT_EQ(demanding->instances().size(), 1u);
  auto* object = dynamic_cast<LegionObject*>(
      world_.kernel.FindActor(demanding->instances().front()));
  ASSERT_NE(object, nullptr);
  HostObject* host = nullptr;
  for (HostObject* candidate : world_.hosts) {
    if (candidate->loid() == object->host()) host = candidate;
  }
  ASSERT_NE(host, nullptr);

  ScheduleRequestList schedule;
  MasterSchedule master;
  master.mappings.push_back(
      ObjectMapping{demanding->loid(), object->host(), object->vault(), ""});
  schedule.masters.push_back(master);
  Await<ScheduleFeedback> feedback;
  world_.enactor->MakeReservations(schedule, feedback.Sink());
  world_.Run();
  ASSERT_TRUE(feedback.Ready() && feedback.Get().ok());
  ASSERT_TRUE(feedback.Get()->success);
  const std::uint64_t enactor_serial = feedback.Get()->tokens.front().serial;
  const ReservationRecord* by_enactor =
      host->reservations().Find(enactor_serial);
  // The host mints serials in order, so mode (a)'s hold came before.
  const ReservationRecord* by_app = nullptr;
  for (std::uint64_t serial = 1; serial < enactor_serial; ++serial) {
    const ReservationRecord* record = host->reservations().Find(serial);
    if (record != nullptr && record->requester == app->loid()) by_app = record;
  }
  ASSERT_NE(by_app, nullptr);
  ASSERT_NE(by_enactor, nullptr);
  EXPECT_EQ(by_app->memory_mb, 96u);
  EXPECT_EQ(by_app->memory_mb, by_enactor->memory_mb);
  EXPECT_DOUBLE_EQ(by_app->cpu_fraction, 0.25);
  EXPECT_DOUBLE_EQ(by_app->cpu_fraction, by_enactor->cpu_fraction);
  EXPECT_EQ(by_app->token.duration, by_enactor->token.duration);
  EXPECT_EQ(by_app->token.confirm_timeout, by_enactor->token.confirm_timeout);
  EXPECT_EQ(by_app->token.type, by_enactor->token.type);
}

TEST_F(LayeringTest, PlusRmDelegatesNegotiationToEnactor) {
  world_.kernel.metrics().Reset();
  PlacementTrace trace = Place(Layering::kApplicationPlusRm);
  EXPECT_TRUE(trace.success);
  EXPECT_EQ(Count(world_.kernel, "negotiations", "enactor"), 1u);
}

TEST_F(LayeringTest, SeparateModulesGoThroughScheduler) {
  const obs::Labels cell = {{"component", "scheduler"},
                            {"scheduler", "random"}};
  const auto lookups = Count(world_.kernel, "collection_lookups", cell);
  PlacementTrace trace = Place(Layering::kSeparateModules);
  EXPECT_TRUE(trace.success);
  EXPECT_GT(Count(world_.kernel, "collection_lookups", cell), lookups);
}

TEST_F(LayeringTest, FailureSurfacesAsUnsuccessfulTrace) {
  for (auto* host : world_.hosts) {
    host->SetPolicy(std::make_unique<DomainRefusalPolicy>(
        std::vector<std::uint32_t>{0}));
  }
  PlacementTrace trace = Place(Layering::kApplicationDoesAll);
  EXPECT_FALSE(trace.success);
}

TEST_F(LayeringTest, DoesAllReleasesGrantedHoldsWhenAnyHostRefuses) {
  // Only host 0 admits the coordinator's domain, so some of the eight
  // reservations are granted there and the rest refused.
  for (std::size_t i = 1; i < world_.hosts.size(); ++i) {
    world_.hosts[i]->SetPolicy(std::make_unique<DomainRefusalPolicy>(
        std::vector<std::uint32_t>{0}));
  }
  PlacementTrace trace = Place(Layering::kApplicationDoesAll, 8);
  EXPECT_FALSE(trace.success);
  const ReservationTable& admitting = world_.hosts[0]->reservations();
  ASSERT_GT(admitting.admitted(), 0u);
  EXPECT_EQ(admitting.cancelled(), admitting.admitted());
  // Well inside the holds' 5-minute confirmation window, none is left.
  for (const HostObject* host : world_.hosts) {
    EXPECT_EQ(host->reservations().live_count(), 0u) << host->spec().name;
  }
}

TEST_F(LayeringTest, FailedEnactmentReleasesItsHolds) {
  // Every host grants its holds, then the class refuses to instantiate
  // on host 1: the enactment fails, and neither the application (mode
  // (a)) nor the Enactor it asked (mode (b)) may leave a hold pinned.
  HostObject* refused = world_.hosts[1];
  klass_->SetPlacementValidator([refused](const PlacementSuggestion& s) {
    return s.host == refused->loid()
               ? Status::Error(ErrorCode::kRefused, "not on host 1")
               : Status::Ok();
  });
  for (Layering layering :
       {Layering::kApplicationDoesAll, Layering::kApplicationPlusRm}) {
    const std::uint64_t admitted = refused->reservations().admitted();
    PlacementTrace trace = Place(layering, 8);
    EXPECT_FALSE(trace.success) << ToString(layering);
    ASSERT_GT(refused->reservations().admitted(), admitted)
        << ToString(layering);
    // Well inside the holds' 5-minute confirmation window, none is left.
    for (const HostObject* host : world_.hosts) {
      EXPECT_EQ(host->reservations().live_count(), 0u)
          << ToString(layering) << " " << host->spec().name;
      EXPECT_EQ(host->running_count(), 0u)
          << ToString(layering) << " " << host->spec().name;
    }
  }
}

// No instance, so no reservation goes out: the placement must still be
// answered, as a failure (mode (b)'s answer for an empty master), with
// neither a hang nor an RPC timeout.
void ExpectEmptyPlacementFailsAtOnce(const PlacementTrace& trace,
                                     const SimKernel& kernel) {
  EXPECT_FALSE(trace.success);
  EXPECT_EQ(trace.instances_started, 0u);
  EXPECT_GT(trace.latency, Duration::Zero());
  EXPECT_LT(trace.latency, Duration::Seconds(1));
  EXPECT_EQ(Count(kernel, "rpcs_timed_out", "kernel"), 0u);
}

TEST_F(LayeringTest, DoesAllAnswersAnEmptyPlacement) {
  world_.kernel.metrics().Reset();
  ExpectEmptyPlacementFailsAtOnce(Place(Layering::kApplicationDoesAll, 0),
                                  world_.kernel);
}

TEST_F(LayeringTest, CombinedAnswersAnEmptyPlacement) {
  // The combined module runs mode (a) remotely; its caller must get that
  // answer back, not its own RPC timeout.
  world_.kernel.metrics().Reset();
  ExpectEmptyPlacementFailsAtOnce(Place(Layering::kCombinedModule, 0),
                                  world_.kernel);
}

}  // namespace
}  // namespace legion
