// Integration: the full figure-3 RMI protocol, steps 1-13.
//
//   1     Hosts populate the Collection.
//   2-3   The Scheduler acquires application knowledge from the classes.
//   4-6   The Enactor obtains reservations from Hosts/Vaults.
//   7-9   After confirmation, the Enactor instantiates through the class
//         objects.
//   10-11 Success/failure codes flow back to the Scheduler.
//   12-13 A resource raises a trigger; the Monitor notifies and a
//         reschedule (migration) follows.
#include <gtest/gtest.h>

#include "core/migration.h"
#include "core/monitor.h"
#include "core/schedulers/irs_scheduler.h"
#include "core/schedulers/ranked_scheduler.h"
#include "test_world.h"
#include "workload/executor.h"
#include "workload/metacomputer.h"

namespace legion {
namespace {

using testing::Count;

NetworkParams QuietNet() {
  NetworkParams params;
  params.jitter_fraction = 0.0;
  return params;
}

class RmiProtocolTest : public ::testing::Test {
 protected:
  RmiProtocolTest() : kernel_(QuietNet()) {
    MetacomputerConfig config;
    config.domains = 2;
    config.hosts_per_domain = 4;
    config.vaults_per_domain = 2;
    config.seed = 9;
    config.load.initial = 0.1;
    config.load.mean = 0.1;
    config.load.volatility = 0.0;
    metacomputer_ = std::make_unique<Metacomputer>(&kernel_, config);
    klass_ = metacomputer_->MakeUniversalClass("app", 64, 1.0);
  }

  SimKernel kernel_;
  std::unique_ptr<Metacomputer> metacomputer_;
  ClassObject* klass_;
};

TEST_F(RmiProtocolTest, FullPlacementPipeline) {
  // Step 1: populate.
  metacomputer_->PopulateCollection();
  ASSERT_EQ(metacomputer_->collection()->record_count(), 8u);

  // Steps 2-11 via the IRS scheduler.
  auto* scheduler = kernel_.AddActor<IrsScheduler>(
      kernel_.minter().Mint(LoidSpace::kService, 0),
      metacomputer_->collection()->loid(), metacomputer_->enactor()->loid(),
      /*nsched=*/4, /*seed=*/41);
  RunOutcome outcome;
  bool finished = false;
  scheduler->ScheduleAndEnact({{klass_->loid(), 4}}, RunOptions{3, 2},
                              [&](Result<RunOutcome> r) {
                                finished = true;
                                if (r.ok()) outcome = *r;
                              });
  kernel_.RunFor(Duration::Minutes(2));
  ASSERT_TRUE(finished);
  ASSERT_TRUE(outcome.success);
  ASSERT_EQ(outcome.enacted.instances.size(), 4u);

  // The objects really run where the schedule says.
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(outcome.enacted.instances[i].ok());
    auto* object = dynamic_cast<LegionObject*>(
        kernel_.FindActor(outcome.enacted.instances[i].value()));
    ASSERT_NE(object, nullptr);
    EXPECT_TRUE(object->active());
    EXPECT_EQ(object->host(), outcome.feedback.reserved_mappings[i].host);
  }
  // Reservation bookkeeping: each mapping's host holds a confirmed
  // reservation.
  for (const auto& mapping : outcome.feedback.reserved_mappings) {
    auto* host = metacomputer_->FindHost(mapping.host);
    ASSERT_NE(host, nullptr);
    EXPECT_GE(host->reservations().size(), 1u);
  }
}

TEST_F(RmiProtocolTest, Steps12And13RescheduleOnTrigger) {
  metacomputer_->PopulateCollection();
  auto* scheduler = kernel_.AddActor<LoadAwareScheduler>(
      kernel_.minter().Mint(LoidSpace::kService, 0),
      metacomputer_->collection()->loid(), metacomputer_->enactor()->loid());
  RunOutcome outcome;
  scheduler->ScheduleAndEnact({{klass_->loid(), 1}}, RunOptions{2, 2},
                              [&](Result<RunOutcome> r) {
                                if (r.ok()) outcome = *r;
                              });
  kernel_.RunFor(Duration::Minutes(2));
  ASSERT_TRUE(outcome.success);
  const Loid object = outcome.enacted.instances[0].value();
  auto* origin_host =
      metacomputer_->FindHost(outcome.feedback.reserved_mappings[0].host);
  ASSERT_NE(origin_host, nullptr);

  // Step 12: the host's trigger fires an outcall to the Monitor.
  MonitorObject* monitor = metacomputer_->monitor();
  monitor->WatchLoadThreshold(origin_host, 2.0);
  // Step 13: the Monitor's reschedule handler migrates the object to the
  // least-loaded other host.
  bool migrated = false;
  monitor->SetRescheduleHandler([&](const RgeEvent& event) {
    HostObject* target = nullptr;
    for (auto* candidate : metacomputer_->hosts()) {
      if (candidate->loid() == event.source) continue;
      if (target == nullptr ||
          candidate->CurrentLoad() < target->CurrentLoad()) {
        target = candidate;
      }
    }
    ASSERT_NE(target, nullptr);
    MigrateObject(&kernel_, monitor->loid(), object, target->loid(),
                  target->spec().domain == 0
                      ? metacomputer_->vaults()[0]->loid()
                      : metacomputer_->vaults()[2]->loid(),
                  [&](Result<MigrationOutcome> r) {
                    migrated = r.ok() && r->success;
                  });
  });
  origin_host->SpikeLoad(3.0);
  kernel_.RunFor(Duration::Minutes(2));
  EXPECT_GE(Count(kernel_, "monitor_events", "monitor"), 1u);
  EXPECT_TRUE(migrated);
  auto* moved = dynamic_cast<LegionObject*>(kernel_.FindActor(object));
  ASSERT_NE(moved, nullptr);
  EXPECT_TRUE(moved->active());
  EXPECT_NE(moved->host(), origin_host->loid());
}

TEST_F(RmiProtocolTest, SurvivesMessageLoss) {
  // "our Legion objects are built to accommodate failure at any step in
  // the scheduling process": with 20% WAN loss the retry structure still
  // places the application most of the time.
  NetworkParams lossy = QuietNet();
  lossy.inter_domain_loss = 0.2;
  SimKernel kernel(lossy);
  MetacomputerConfig config;
  config.domains = 2;
  config.hosts_per_domain = 4;
  config.seed = 10;
  Metacomputer metacomputer(&kernel, config);
  metacomputer.PopulateCollection();
  auto* klass = metacomputer.MakeUniversalClass("app");
  auto* scheduler = kernel.AddActor<IrsScheduler>(
      kernel.minter().Mint(LoidSpace::kService, 0),
      metacomputer.collection()->loid(), metacomputer.enactor()->loid(), 4,
      51);
  // Use a short RPC timeout so retries happen quickly.
  metacomputer.enactor()->options().rpc_timeout = Duration::Seconds(5);

  int successes = 0;
  for (int trial = 0; trial < 5; ++trial) {
    bool success = false;
    scheduler->ScheduleAndEnact({{klass->loid(), 2}}, RunOptions{4, 3},
                                [&](Result<RunOutcome> r) {
                                  success = r.ok() && r->success;
                                });
    kernel.RunFor(Duration::Minutes(10));
    if (success) ++successes;
  }
  EXPECT_GE(successes, 3);
  EXPECT_GT(Count(kernel, "messages_dropped", "kernel"), 0u);
}

TEST_F(RmiProtocolTest, PartitionHealsAndPlacementProceeds) {
  metacomputer_->PopulateCollection();
  // Partition domain 0 from domain 1 for the first simulated hour.
  kernel_.network().AddPartition(0, 1, kernel_.Now(),
                                 kernel_.Now() + Duration::Hours(1));
  metacomputer_->enactor()->options().rpc_timeout = Duration::Seconds(10);
  auto* scheduler = kernel_.AddActor<IrsScheduler>(
      kernel_.minter().Mint(LoidSpace::kService, 0),
      metacomputer_->collection()->loid(), metacomputer_->enactor()->loid(),
      6, 61);
  // During the partition, domain-1 hosts are unreachable, but IRS's
  // variants usually find domain-0 hosts.
  bool success = false;
  scheduler->ScheduleAndEnact({{klass_->loid(), 2}}, RunOptions{4, 2},
                              [&](Result<RunOutcome> r) {
                                success = r.ok() && r->success;
                              });
  kernel_.RunFor(Duration::Minutes(20));
  EXPECT_TRUE(success);
}

}  // namespace
}  // namespace legion
