// Failure injection: "our Legion objects are built to accommodate
// failure at any step in the scheduling process" (paper §3.1).  Each
// test breaks one step and checks the system degrades, reports, and
// recovers rather than wedging.
#include <gtest/gtest.h>


#include "core/migration.h"
#include "core/schedulers/irs_scheduler.h"
#include "core/schedulers/random_scheduler.h"
#include "test_world.h"

namespace legion {
namespace {

using testing::Await;
using testing::Count;
using testing::TestWorld;

class FailureTest : public ::testing::Test {
 protected:
  FailureTest() : world_(testing::TestWorldConfig{.hosts = 4}) {
    world_.Populate();
    klass_ = world_.MakeClass("app");
  }

  ObjectMapping MappingTo(std::size_t index) {
    ObjectMapping mapping;
    mapping.class_loid = klass_->loid();
    mapping.host = world_.hosts[index]->loid();
    mapping.vault = world_.vaults[index]->loid();
    return mapping;
  }

  TestWorld world_;
  ClassObject* klass_;
};

TEST_F(FailureTest, HostCrashMidNegotiationTimesOutAndVariantsRecover) {
  world_.enactor->options().rpc_timeout = Duration::Seconds(5);
  const Loid dead_host = world_.hosts[1]->loid();

  ScheduleRequestList request;
  MasterSchedule master;
  master.mappings = {MappingTo(0), MappingTo(1)};
  VariantSchedule variant;
  variant.replaces.Resize(2);
  variant.replaces.Set(1);
  variant.mappings.emplace_back(1, MappingTo(2));
  master.variants.push_back(variant);
  request.masters.push_back(master);

  // Host 1 vanishes (crash) before the negotiation starts; the RPC to it
  // times out and the variant machinery routes around the corpse.
  // (Removing the actor frees it, so the schedule was built first.)
  world_.kernel.RemoveActor(dead_host);

  Await<ScheduleFeedback> feedback;
  world_.enactor->MakeReservations(request, feedback.Sink());
  world_.Run();
  ASSERT_TRUE(feedback.Ready());
  ASSERT_TRUE(feedback.Get()->success);
  EXPECT_EQ(feedback.Get()->reserved_mappings[1].host,
            world_.hosts[2]->loid());
}

TEST_F(FailureTest, HostCrashAfterReservationFailsEnactmentCleanly) {
  ScheduleRequestList request;
  MasterSchedule master;
  master.mappings = {MappingTo(0), MappingTo(1)};
  request.masters.push_back(master);
  Await<ScheduleFeedback> feedback;
  world_.enactor->MakeReservations(request, feedback.Sink());
  world_.Run();
  ASSERT_TRUE(feedback.Get()->success);
  // Host 1 dies between reservation and enactment.
  world_.kernel.RemoveActor(world_.hosts[1]->loid());
  Await<EnactResult> enacted;
  world_.enactor->EnactSchedule(*feedback.Get(), enacted.Sink());
  world_.Run();
  ASSERT_TRUE(enacted.Ready());
  EXPECT_FALSE(enacted.Get()->success);
  // The mapping to the live host still started; the dead one reports.
  EXPECT_TRUE(enacted.Get()->instances[0].ok());
  EXPECT_FALSE(enacted.Get()->instances[1].ok());
  EXPECT_EQ(world_.hosts[0]->running_count(), 1u);
}

TEST_F(FailureTest, FullVaultFailsDeactivationButObjectKeepsRunning) {
  // A tiny vault that one foreign OPR fills completely.
  VaultSpec tiny_spec;
  tiny_spec.name = "tiny";
  tiny_spec.capacity_mb = 1;
  auto* tiny = world_.kernel.AddActor<VaultObject>(
      world_.kernel.minter().Mint(LoidSpace::kVault, 0), tiny_spec);
  world_.hosts[0]->AddCompatibleVault(tiny->loid());
  PlacementSuggestion suggestion;
  suggestion.host = world_.hosts[0]->loid();
  suggestion.vault = tiny->loid();
  Await<Loid> placed;
  klass_->CreateInstance(suggestion, placed.Sink());
  world_.Run();
  ASSERT_TRUE(placed.Get().ok());
  // Stuff the vault to capacity with a foreign OPR.
  Opr filler;
  filler.object = Loid(LoidSpace::kObject, 0, 9999);
  filler.class_loid = klass_->loid();
  filler.body.assign(tiny->capacity_bytes() - 128, 0x7F);
  Await<bool> stuffed;
  tiny->StoreOpr(filler, stuffed.Sink());
  ASSERT_TRUE(*stuffed.Get());

  Await<bool> deactivated;
  world_.hosts[0]->DeactivateObject(*placed.Get(), deactivated.Sink());
  world_.Run();
  ASSERT_TRUE(deactivated.Ready());
  EXPECT_FALSE(deactivated.Get().ok() && *deactivated.Get());
  // The object was NOT torn down: it still runs where it was.
  auto* object =
      dynamic_cast<LegionObject*>(world_.kernel.FindActor(*placed.Get()));
  ASSERT_NE(object, nullptr);
  EXPECT_TRUE(object->active());
  EXPECT_EQ(world_.hosts[0]->running_count(), 1u);
}

TEST_F(FailureTest, MigrationToDeadHostReportsAndPreservesNothingLost) {
  PlacementSuggestion suggestion;
  suggestion.host = world_.hosts[0]->loid();
  suggestion.vault = world_.vaults[0]->loid();
  Await<Loid> placed;
  klass_->CreateInstance(suggestion, placed.Sink());
  world_.Run();
  ASSERT_TRUE(placed.Get().ok());
  const Loid ghost(LoidSpace::kHost, 0, 31337);
  Await<MigrationOutcome> outcome;
  MigrateObject(&world_.kernel, world_.enactor->loid(), *placed.Get(),
                ghost, world_.vaults[1]->loid(), outcome.Sink());
  world_.Run();
  ASSERT_TRUE(outcome.Ready());
  EXPECT_FALSE(outcome.Get()->success);
  // The object was deactivated and its OPR moved, but reactivation
  // failed; the passive state survives in the target vault.
  EXPECT_EQ(world_.vaults[1]->stored_count(), 1u);
  auto* object =
      dynamic_cast<LegionObject*>(world_.kernel.FindActor(*placed.Get()));
  ASSERT_NE(object, nullptr);
  EXPECT_EQ(object->state(), ObjectState::kInactive);
  // Recovery: reactivate by hand on a live host.
  Await<bool> recovered;
  world_.hosts[1]->ReactivateObject(*placed.Get(), world_.vaults[1]->loid(),
                                    recovered.Sink());
  world_.Run();
  EXPECT_TRUE(*recovered.Get());
  EXPECT_TRUE(object->active());
}

TEST_F(FailureTest, CollectionUnreachableFailsSchedulingWithTimeout) {
  world_.kernel.RemoveActor(world_.collection->loid());
  auto* scheduler = world_.kernel.AddActor<IrsScheduler>(
      world_.kernel.minter().Mint(LoidSpace::kService, 0),
      Loid(LoidSpace::kService, 0, 424242),  // nothing there
      world_.enactor->loid(), 4, 3);
  Await<ScheduleRequestList> schedule;
  scheduler->ComputeSchedule({{klass_->loid(), 2}}, schedule.Sink());
  world_.Run();
  ASSERT_TRUE(schedule.Ready());
  EXPECT_FALSE(schedule.Get().ok());
  EXPECT_EQ(schedule.Get().code(), ErrorCode::kUnavailable);
}

TEST_F(FailureTest, KilledInstanceVanishesFromItsClassPerspective) {
  Await<Loid> placed;
  klass_->CreateInstance(std::nullopt, placed.Sink());
  world_.Run();
  ASSERT_TRUE(placed.Get().ok());
  auto* object =
      dynamic_cast<LegionObject*>(world_.kernel.FindActor(*placed.Get()));
  const Loid host_loid = object->host();
  auto* host = dynamic_cast<HostObject*>(world_.kernel.FindActor(host_loid));
  Await<bool> killed;
  host->KillObject(*placed.Get(), killed.Sink());
  EXPECT_TRUE(*killed.Get());
  EXPECT_EQ(world_.kernel.FindActor(*placed.Get()), nullptr);
  klass_->ForgetInstance(*placed.Get());
  EXPECT_TRUE(klass_->instances().empty());
}

// ---- Resilience layer (DESIGN.md §9) ----------------------------------------

// The retry and breaker paths run at cap 1 (one make_reservation RPC per
// mapping) and at the default batch cap; both settle through the same
// per-slot code and must recover identically.
class FailureCapTest : public ::testing::TestWithParam<std::size_t> {};

INSTANTIATE_TEST_SUITE_P(
    Caps, FailureCapTest, ::testing::Values(std::size_t{1}, std::size_t{64}),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return "Cap" + std::to_string(info.param);
    });

TEST_P(FailureCapTest, TransientTimeoutRecoveredWithinMaxAttempts) {
  // Two domains, the target behind a 5-second partition.  The first
  // reservation attempt times out; the deterministic backoff lands the
  // retry after the partition heals, so the same mapping recovers in
  // place -- no variant, no wholesale cancel.
  TestWorld world(testing::TestWorldConfig{.hosts = 4, .domains = 2});
  world.Populate();
  ClassObject* klass = world.MakeClass("app");
  EnactorOptions& opts = world.enactor->options();
  opts.max_batch_size = GetParam();
  opts.rpc_timeout = Duration::Seconds(2);
  opts.retry.max_attempts = 3;
  opts.retry.base_delay = Duration::Seconds(4);
  opts.retry.jitter_fraction = 0.0;
  world.kernel.network().AddPartition(
      0, 1, world.kernel.Now(), world.kernel.Now() + Duration::Seconds(5));

  ScheduleRequestList request;
  MasterSchedule master;
  ObjectMapping mapping;
  mapping.class_loid = klass->loid();
  mapping.host = world.hosts[1]->loid();  // domain 1, behind the partition
  mapping.vault = world.vaults[1]->loid();
  master.mappings.push_back(mapping);
  request.masters.push_back(master);

  Await<ScheduleFeedback> feedback;
  world.enactor->MakeReservations(request, feedback.Sink());
  world.Run();
  ASSERT_TRUE(feedback.Ready());
  ASSERT_TRUE(feedback.Get()->success);
  EXPECT_EQ(feedback.Get()->reserved_mappings[0].host,
            world.hosts[1]->loid());
  EXPECT_GE(Count(world.kernel, "retries", "enactor"), 1u);
  EXPECT_GE(Count(world.kernel, "partial_recoveries", "enactor"), 1u);
}

TEST_P(FailureCapTest,
       BreakerOpensAfterRepeatedTimeoutsAndSchedulerAvoidsHost) {
  TestWorld world(testing::TestWorldConfig{.hosts = 4});
  world.Populate();
  ClassObject* klass = world.MakeClass("app");
  EnactorOptions& opts = world.enactor->options();
  opts.max_batch_size = GetParam();
  opts.rpc_timeout = Duration::Seconds(2);
  opts.retry.max_attempts = 1;  // isolate the breaker from the retry path
  world.enactor->health().options().host_failure_threshold = 2;
  // Long cooldown so the breaker stays kOpen (not half-open) across the
  // scheduler rounds and the fail-fast check below.
  world.enactor->health().options().host_cooldown = Duration::Minutes(30);
  // Host 3 crashes, but its Collection record lingers: without health
  // tracking every placement would keep negotiating with the corpse.
  const Loid dead = world.hosts[3]->loid();
  world.kernel.RemoveActor(dead);

  ScheduleRequestList request;
  MasterSchedule master;
  ObjectMapping mapping;
  mapping.class_loid = klass->loid();
  mapping.host = dead;
  mapping.vault = world.vaults[3]->loid();
  master.mappings.push_back(mapping);
  request.masters.push_back(master);
  for (int round = 0; round < 2; ++round) {
    Await<ScheduleFeedback> feedback;
    world.enactor->MakeReservations(request, feedback.Sink());
    world.kernel.RunFor(Duration::Seconds(5));
    ASSERT_TRUE(feedback.Ready());
    EXPECT_FALSE(feedback.Get()->success);
  }
  EXPECT_FALSE(world.enactor->health().Healthy(dead));
  EXPECT_EQ(world.enactor->health().HostState(dead), BreakerState::kOpen);
  EXPECT_TRUE(world.enactor->health().SuspectUntil(dead).has_value());

  // The scheduler consults the same tracker: with three healthy hosts
  // available, the suspect never enters a computed schedule.
  auto* scheduler = world.kernel.AddActor<RandomScheduler>(
      world.kernel.minter().Mint(LoidSpace::kService, 0),
      world.collection->loid(), world.enactor->loid(), 7);
  for (int round = 0; round < 5; ++round) {
    Await<ScheduleRequestList> schedule;
    scheduler->ComputeSchedule({{klass->loid(), 3}}, schedule.Sink());
    world.kernel.RunFor(Duration::Seconds(5));
    ASSERT_TRUE(schedule.Ready());
    ASSERT_TRUE(schedule.Get().ok());
    for (const ObjectMapping& m : schedule.Get()->masters[0].mappings) {
      EXPECT_NE(m.host, dead);
    }
  }
  // Further negotiations fail fast (no RPC round trip) while open.
  const std::uint64_t failed_before =
      Count(world.kernel, "reservations_failed", "enactor");
  Await<ScheduleFeedback> fast;
  world.enactor->MakeReservations(request, fast.Sink());
  world.kernel.RunFor(Duration::Seconds(1));
  ASSERT_TRUE(fast.Ready());
  EXPECT_FALSE(fast.Get()->success);
  EXPECT_GE(Count(world.kernel, "breaker_open", "enactor"), 1u);
  EXPECT_EQ(Count(world.kernel, "reservations_failed", "enactor"),
            failed_before);
}

TEST_P(FailureCapTest, BreakerReProbeRestoresPartitionedHost) {
  TestWorld world(testing::TestWorldConfig{.hosts = 4, .domains = 2});
  world.Populate();
  ClassObject* klass = world.MakeClass("app");
  EnactorOptions& opts = world.enactor->options();
  opts.max_batch_size = GetParam();
  opts.rpc_timeout = Duration::Seconds(2);
  opts.retry.max_attempts = 1;
  world.enactor->health().options().host_failure_threshold = 2;
  world.enactor->health().options().host_cooldown = Duration::Seconds(30);
  const Loid target = world.hosts[1]->loid();  // domain 1
  world.kernel.network().AddPartition(
      0, 1, world.kernel.Now(), world.kernel.Now() + Duration::Seconds(60));

  ScheduleRequestList request;
  MasterSchedule master;
  ObjectMapping mapping;
  mapping.class_loid = klass->loid();
  mapping.host = target;
  mapping.vault = world.vaults[1]->loid();
  master.mappings.push_back(mapping);
  request.masters.push_back(master);
  for (int round = 0; round < 2; ++round) {
    Await<ScheduleFeedback> feedback;
    world.enactor->MakeReservations(request, feedback.Sink());
    world.kernel.RunFor(Duration::Seconds(5));
    ASSERT_TRUE(feedback.Ready());
    EXPECT_FALSE(feedback.Get()->success);
  }
  ASSERT_EQ(world.enactor->health().HostState(target), BreakerState::kOpen);

  // Past the partition AND the cooldown, the breaker is half-open; the
  // next reservation is the probe that closes it.
  world.kernel.RunFor(Duration::Seconds(70));
  ASSERT_EQ(world.enactor->health().HostState(target),
            BreakerState::kHalfOpen);
  EXPECT_TRUE(world.enactor->health().Healthy(target));
  Await<ScheduleFeedback> probe;
  world.enactor->MakeReservations(request, probe.Sink());
  world.Run();
  ASSERT_TRUE(probe.Ready());
  EXPECT_TRUE(probe.Get()->success);
  EXPECT_GE(Count(world.kernel, "breaker_probes", "enactor"), 1u);
  EXPECT_EQ(world.enactor->health().HostState(target), BreakerState::kClosed);
}

TEST_F(FailureTest, SameSeedChaosRunsAreDeterministic) {
  // The chaos harness's core guarantee: an identical seeded world under
  // loss + partition + retries produces identical outcomes and an
  // identical metrics snapshot, run to run.
  auto run_once = []() {
    NetworkParams net;
    net.inter_domain_loss = 0.1;
    net.seed = 4242;
    TestWorld world(
        testing::TestWorldConfig{.hosts = 6, .domains = 2, .net = net});
    world.kernel.network().AddPartition(
        0, 1, world.kernel.Now() + Duration::Seconds(30),
        world.kernel.Now() + Duration::Seconds(60));
    world.Populate();
    ClassObject* klass = world.MakeClass("app");
    world.enactor->options().rpc_timeout = Duration::Seconds(2);
    world.enactor->options().retry.max_attempts = 3;
    auto* scheduler = world.kernel.AddActor<IrsScheduler>(
        world.kernel.minter().Mint(LoidSpace::kService, 0),
        world.collection->loid(), world.enactor->loid(), 4, 11);
    std::string outcomes;
    for (int round = 0; round < 4; ++round) {
      scheduler->ScheduleAndEnact({{klass->loid(), 2}}, RunOptions{2, 2},
                                  [&](Result<RunOutcome> outcome) {
                                    outcomes +=
                                        outcome.ok() && outcome->success
                                            ? 'S'
                                            : 'F';
                                  });
      world.kernel.RunFor(Duration::Seconds(30));
    }
    // No exclusions: wall time routes through the kernel's WallClock,
    // which is pinned by default, so even collection_query_wall_us is
    // byte-identical across same-seed runs.
    return outcomes + "\n" + world.kernel.metrics().SnapshotJson();
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST_F(FailureTest, PartitionDuringPushHealsOnNextReassessment) {
  // Split the collection (domain 0) from a 2-domain world's domain 1.
  TestWorld world(testing::TestWorldConfig{.hosts = 4, .domains = 2});
  world.kernel.network().AddPartition(0, 1, world.kernel.Now(),
                                      world.kernel.Now() +
                                          Duration::Minutes(5));
  world.Populate();
  // Only the domain-0 hosts' records arrived.
  EXPECT_EQ(world.collection->record_count(), 2u);
  // The partition heals; the next reassessment pushes the missing two.
  world.kernel.RunFor(Duration::Minutes(6));
  for (auto* host : world.hosts) host->ReassessState();
  world.kernel.RunFor(Duration::Minutes(1));
  EXPECT_EQ(world.collection->record_count(), 4u);
}

}  // namespace
}  // namespace legion
