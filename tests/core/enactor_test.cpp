// The Enactor (paper figure 6): reservation negotiation, bitmap-guided
// variant selection, thrash avoidance, and enactment.
#include "core/enactor.h"

#include <gtest/gtest.h>

#include "test_world.h"

namespace legion {
namespace {

using testing::Await;
using testing::Count;
using testing::TestWorld;

class EnactorTest : public ::testing::Test {
 protected:
  EnactorTest() : world_(testing::TestWorldConfig{.hosts = 4}) {
    klass_ = world_.MakeClass("app", 64, 1.0);
  }

  ObjectMapping MappingTo(std::size_t host_index) {
    ObjectMapping mapping;
    mapping.class_loid = klass_->loid();
    mapping.host = world_.hosts[host_index]->loid();
    mapping.vault = world_.vaults[host_index]->loid();
    return mapping;
  }

  VariantSchedule Variant(std::size_t width,
                          std::vector<std::pair<std::size_t, std::size_t>>
                              index_to_host) {
    VariantSchedule variant;
    variant.replaces.Resize(width);
    for (const auto& [index, host] : index_to_host) {
      variant.replaces.Set(index);
      variant.mappings.emplace_back(index, MappingTo(host));
    }
    return variant;
  }

  // Makes host `index` refuse everything (the enactor is in domain 0).
  void BlockHost(std::size_t index) {
    world_.hosts[index]->SetPolicy(std::make_unique<DomainRefusalPolicy>(
        std::vector<std::uint32_t>{0}));
  }

  ScheduleFeedback Negotiate(const ScheduleRequestList& request) {
    Await<ScheduleFeedback> feedback;
    world_.enactor->MakeReservations(request, feedback.Sink());
    world_.Run();
    EXPECT_TRUE(feedback.Ready());
    EXPECT_TRUE(feedback.Get().ok());
    return *feedback.Get();
  }

  TestWorld world_;
  ClassObject* klass_;
};

TEST_F(EnactorTest, MasterSucceedsWhenAllHostsGrant) {
  ScheduleRequestList request;
  MasterSchedule master;
  master.mappings = {MappingTo(0), MappingTo(1), MappingTo(2)};
  request.masters.push_back(master);

  ScheduleFeedback feedback = Negotiate(request);
  ASSERT_TRUE(feedback.success);
  ASSERT_TRUE(feedback.winner.has_value());
  EXPECT_EQ(feedback.winner->master_index, 0u);
  EXPECT_TRUE(feedback.winner->variant_indices.empty());
  ASSERT_EQ(feedback.tokens.size(), 3u);
  // Every token checks out at its host.
  for (std::size_t i = 0; i < 3; ++i) {
    Await<bool> check;
    world_.hosts[i]->CheckReservation(feedback.tokens[i], check.Sink());
    EXPECT_TRUE(*check.Get());
  }
  EXPECT_EQ(Count(world_.kernel, "reservations_granted", "enactor"), 3u);
  EXPECT_EQ(Count(world_.kernel, "rereservations", "enactor"), 0u);
}

TEST_F(EnactorTest, MalformedScheduleReportedAsSuch) {
  // "the Enactor may report whether the failure was due to ... a
  // malformed schedule".
  ScheduleRequestList request;  // no masters at all
  ScheduleFeedback feedback = Negotiate(request);
  EXPECT_FALSE(feedback.success);
  EXPECT_EQ(feedback.failure, ErrorCode::kMalformedSchedule);
}

TEST_F(EnactorTest, VariantRepairsSingleFailure) {
  BlockHost(1);
  ScheduleRequestList request;
  MasterSchedule master;
  master.mappings = {MappingTo(0), MappingTo(1)};
  master.variants.push_back(Variant(2, {{1, 3}}));  // host 3 replaces
  request.masters.push_back(master);

  ScheduleFeedback feedback = Negotiate(request);
  ASSERT_TRUE(feedback.success);
  EXPECT_EQ(feedback.winner->variant_indices,
            (std::vector<std::size_t>{0}));
  EXPECT_EQ(feedback.reserved_mappings[1].host, world_.hosts[3]->loid());
  // The reservation on host 0 was kept, not remade: no thrashing.
  EXPECT_EQ(Count(world_.kernel, "rereservations", "enactor"), 0u);
  EXPECT_EQ(Count(world_.kernel, "reservations_cancelled", "enactor"), 0u);
}

TEST_F(EnactorTest, VariantReplacingSucceededMappingCancelsIt) {
  // "This variant may also have different mappings for other instances,
  // which may have succeeded in the master schedule."
  BlockHost(1);
  ScheduleRequestList request;
  MasterSchedule master;
  master.mappings = {MappingTo(0), MappingTo(1)};
  // The only covering variant also moves index 0 (which succeeded).
  master.variants.push_back(Variant(2, {{0, 2}, {1, 3}}));
  request.masters.push_back(master);

  ScheduleFeedback feedback = Negotiate(request);
  ASSERT_TRUE(feedback.success);
  EXPECT_EQ(feedback.reserved_mappings[0].host, world_.hosts[2]->loid());
  EXPECT_EQ(feedback.reserved_mappings[1].host, world_.hosts[3]->loid());
  // Host 0's reservation was cancelled when the variant replaced it.
  EXPECT_EQ(Count(world_.kernel, "reservations_cancelled", "enactor"), 1u);
  // But the new mapping differs, so it is not a *re*-reservation.
  EXPECT_EQ(Count(world_.kernel, "rereservations", "enactor"), 0u);
}

TEST_F(EnactorTest, MultipleVariantsComposeToCoverMultipleFailures) {
  BlockHost(0);
  BlockHost(1);
  ScheduleRequestList request;
  MasterSchedule master;
  master.mappings = {MappingTo(0), MappingTo(1)};
  // Single-bit variants (the k-of-n shape): the Enactor must apply two.
  master.variants.push_back(Variant(2, {{0, 2}}));
  master.variants.push_back(Variant(2, {{1, 3}}));
  request.masters.push_back(master);

  ScheduleFeedback feedback = Negotiate(request);
  ASSERT_TRUE(feedback.success);
  EXPECT_EQ(feedback.winner->variant_indices,
            (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(feedback.reserved_mappings[0].host, world_.hosts[2]->loid());
  EXPECT_EQ(feedback.reserved_mappings[1].host, world_.hosts[3]->loid());
}

TEST_F(EnactorTest, FallsBackToNextMasterWhenVariantsExhausted) {
  BlockHost(0);
  ScheduleRequestList request;
  MasterSchedule first;
  first.mappings = {MappingTo(0)};  // fails, no variants
  request.masters.push_back(first);
  MasterSchedule second;
  second.mappings = {MappingTo(1)};
  request.masters.push_back(second);

  ScheduleFeedback feedback = Negotiate(request);
  ASSERT_TRUE(feedback.success);
  EXPECT_EQ(feedback.winner->master_index, 1u);
}

TEST_F(EnactorTest, TotalFailureReportsReason) {
  for (std::size_t i = 0; i < world_.hosts.size(); ++i) BlockHost(i);
  ScheduleRequestList request;
  MasterSchedule master;
  master.mappings = {MappingTo(0)};
  master.variants.push_back(Variant(1, {{0, 1}}));
  request.masters.push_back(master);

  ScheduleFeedback feedback = Negotiate(request);
  EXPECT_FALSE(feedback.success);
  EXPECT_EQ(feedback.failure, ErrorCode::kRefused);
  EXPECT_FALSE(feedback.failure_detail.empty());
}

TEST_F(EnactorTest, NaiveModeThrashes) {
  // E2's baseline: without bitmap guidance the Enactor cancels and
  // remakes the same reservations.
  world_.enactor->options().use_variant_bitmaps = false;
  BlockHost(1);
  ScheduleRequestList request;
  MasterSchedule master;
  master.mappings = {MappingTo(0), MappingTo(1)};
  // Variant 0 does not fix the failure; variant 1 does.
  master.variants.push_back(Variant(2, {{0, 2}}));
  master.variants.push_back(Variant(2, {{1, 3}}));
  request.masters.push_back(master);

  ScheduleFeedback feedback = Negotiate(request);
  ASSERT_TRUE(feedback.success);
  // The mapping for index 0 was granted, cancelled, and remade at least
  // once: thrashing observed.
  EXPECT_GT(Count(world_.kernel, "rereservations", "enactor"), 0u);
  EXPECT_GT(Count(world_.kernel, "reservations_cancelled", "enactor"), 0u);
}

TEST_F(EnactorTest, BitmapModeSameScenarioDoesNotThrash) {
  BlockHost(1);
  ScheduleRequestList request;
  MasterSchedule master;
  master.mappings = {MappingTo(0), MappingTo(1)};
  master.variants.push_back(Variant(2, {{0, 2}}));
  master.variants.push_back(Variant(2, {{1, 3}}));
  request.masters.push_back(master);

  ScheduleFeedback feedback = Negotiate(request);
  ASSERT_TRUE(feedback.success);
  EXPECT_EQ(Count(world_.kernel, "rereservations", "enactor"), 0u);
}

TEST_F(EnactorTest, EnactScheduleStartsInstances) {
  ScheduleRequestList request;
  MasterSchedule master;
  master.mappings = {MappingTo(0), MappingTo(1)};
  request.masters.push_back(master);
  ScheduleFeedback feedback = Negotiate(request);
  ASSERT_TRUE(feedback.success);

  Await<EnactResult> enacted;
  world_.enactor->EnactSchedule(feedback, enacted.Sink());
  world_.Run();
  ASSERT_TRUE(enacted.Ready());
  ASSERT_TRUE(enacted.Get().ok());
  EXPECT_TRUE(enacted.Get()->success);
  ASSERT_EQ(enacted.Get()->instances.size(), 2u);
  EXPECT_EQ(world_.hosts[0]->running_count(), 1u);
  EXPECT_EQ(world_.hosts[1]->running_count(), 1u);
  EXPECT_EQ(klass_->instances().size(), 2u);
}

TEST_F(EnactorTest, EnactWithoutSuccessfulFeedbackFails) {
  ScheduleFeedback feedback;
  feedback.success = false;
  Await<EnactResult> enacted;
  world_.enactor->EnactSchedule(feedback, enacted.Sink());
  world_.Run();
  EXPECT_FALSE(enacted.Get()->success);
}

TEST_F(EnactorTest, CancelReservationsReleasesTokens) {
  ScheduleRequestList request;
  MasterSchedule master;
  master.mappings = {MappingTo(0), MappingTo(1)};
  request.masters.push_back(master);
  ScheduleFeedback feedback = Negotiate(request);
  ASSERT_TRUE(feedback.success);

  Await<std::size_t> cancelled;
  world_.enactor->CancelReservations(feedback, cancelled.Sink());
  world_.Run();
  EXPECT_EQ(*cancelled.Get(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    Await<bool> check;
    world_.hosts[i]->CheckReservation(feedback.tokens[i], check.Sink());
    EXPECT_FALSE(*check.Get());
  }
}

TEST_F(EnactorTest, UnknownHostCountsAsFailure) {
  ScheduleRequestList request;
  MasterSchedule master;
  ObjectMapping ghost = MappingTo(0);
  ghost.host = Loid(LoidSpace::kHost, 0, 31337);
  master.mappings = {ghost};
  request.masters.push_back(master);
  ScheduleFeedback feedback = Negotiate(request);
  EXPECT_FALSE(feedback.success);
}

// ---- The batched pipeline (DESIGN.md §11) -----------------------------------

TEST_F(EnactorTest, BatchingGroupsRequestsByHost) {
  // 8 mappings over 4 hosts with a generous cap: one ReserveBatch RPC
  // per host, all slots granted.
  world_.enactor->options().max_batch_size = 8;
  ScheduleRequestList request;
  MasterSchedule master;
  for (std::size_t i = 0; i < 8; ++i) master.mappings.push_back(MappingTo(i % 4));
  request.masters.push_back(master);

  ScheduleFeedback feedback = Negotiate(request);
  ASSERT_TRUE(feedback.success);
  EXPECT_EQ(Count(world_.kernel, "batches_sent", "enactor"), 4u);
  EXPECT_EQ(Count(world_.kernel, "batched_slots", "enactor"), 8u);
  EXPECT_EQ(Count(world_.kernel, "reservations_granted", "enactor"), 8u);
  EXPECT_EQ(Count(world_.kernel, "reservations_requested", "enactor"), 8u);
}

TEST_F(EnactorTest, BatchingChunksAtTheCap) {
  // 5 same-host mappings with cap 2: chunks of 2 + 2 + 1.
  world_.enactor->options().max_batch_size = 2;
  ScheduleRequestList request;
  MasterSchedule master;
  for (std::size_t i = 0; i < 5; ++i) master.mappings.push_back(MappingTo(0));
  request.masters.push_back(master);

  ScheduleFeedback feedback = Negotiate(request);
  ASSERT_TRUE(feedback.success);
  EXPECT_EQ(Count(world_.kernel, "batches_sent", "enactor"), 3u);
  EXPECT_EQ(Count(world_.kernel, "batched_slots", "enactor"), 5u);
}

TEST_F(EnactorTest, BackpressureParksOverflowAndStillSucceeds) {
  // Cap 2 keeps the batched path (1 sends one RPC per mapping);
  // four single-slot host groups against a window of one in-flight batch.
  world_.enactor->options().max_batch_size = 2;
  world_.enactor->options().max_outstanding_batches = 1;
  ScheduleRequestList request;
  MasterSchedule master;
  for (std::size_t i = 0; i < 4; ++i) master.mappings.push_back(MappingTo(i));
  request.masters.push_back(master);

  ScheduleFeedback feedback = Negotiate(request);
  ASSERT_TRUE(feedback.success);
  ASSERT_EQ(feedback.tokens.size(), 4u);
  // Only one batch may be in flight: the other three parked first.
  EXPECT_EQ(Count(world_.kernel, "requests_parked", "enactor"), 3u);
  EXPECT_EQ(Count(world_.kernel, "batches_sent", "enactor"), 4u);
}

TEST_F(EnactorTest, PartialBatchFailureFeedsVariantMachinery) {
  // Nine 1.0-cpu mappings against host 0's 8 units: one ReserveBatch
  // grants eight slots and refuses the ninth; the variant moves it.
  ScheduleRequestList request;
  MasterSchedule master;
  for (std::size_t i = 0; i < 9; ++i) master.mappings.push_back(MappingTo(0));
  master.variants.push_back(Variant(9, {{8, 1}}));
  request.masters.push_back(master);

  ScheduleFeedback feedback = Negotiate(request);
  ASSERT_TRUE(feedback.success);
  EXPECT_EQ(feedback.reserved_mappings[8].host, world_.hosts[1]->loid());
  EXPECT_EQ(Count(world_.kernel, "reservations_granted", "enactor"), 9u);
  EXPECT_EQ(Count(world_.kernel, "reservations_failed", "enactor"), 1u);
  // Round 1: one batch of 9 to host 0.  Round 2: one batch of 1 to
  // host 1.  No thrashing.
  EXPECT_EQ(Count(world_.kernel, "batches_sent", "enactor"), 2u);
  EXPECT_EQ(Count(world_.kernel, "rereservations", "enactor"), 0u);
}

TEST_F(EnactorTest, FailedIndicesReportedOnTotalFailure) {
  for (std::size_t i = 0; i < world_.hosts.size(); ++i) BlockHost(i);
  ScheduleRequestList request;
  MasterSchedule master;
  master.mappings = {MappingTo(0), MappingTo(1), MappingTo(2)};
  request.masters.push_back(master);

  ScheduleFeedback feedback = Negotiate(request);
  ASSERT_FALSE(feedback.success);
  EXPECT_EQ(feedback.failed_indices, (std::vector<std::size_t>{0, 1, 2}));
}

class CoAllocationTest : public ::testing::Test {
 protected:
  CoAllocationTest()
      : world_(testing::TestWorldConfig{.hosts = 4, .domains = 2}) {
    klass_ = world_.MakeClass("app");
  }
  TestWorld world_;
  ClassObject* klass_;
};

TEST_F(CoAllocationTest, ReservesAcrossDomainsAtomically) {
  // "this may require the Enactor to negotiate with several resources
  // from different administrative domains to perform co-allocation."
  ScheduleRequestList request;
  MasterSchedule master;
  for (std::size_t i = 0; i < 4; ++i) {
    ObjectMapping mapping;
    mapping.class_loid = klass_->loid();
    mapping.host = world_.hosts[i]->loid();
    mapping.vault = world_.vaults[i]->loid();
    master.mappings.push_back(mapping);
  }
  request.masters.push_back(master);
  Await<ScheduleFeedback> feedback;
  world_.enactor->MakeReservations(request, feedback.Sink());
  world_.Run();
  ASSERT_TRUE(feedback.Get().ok());
  ASSERT_TRUE(feedback.Get()->success);
  // Hosts 1 and 3 are in domain 1, the enactor in domain 0: their
  // reservations crossed the WAN.
  EXPECT_EQ(feedback.Get()->tokens.size(), 4u);
}

}  // namespace
}  // namespace legion
