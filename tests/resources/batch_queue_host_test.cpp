// Batch Queue Host Objects: queue-fronted machines, reservation
// pass-through (Maui), and the paper's "unavoidable potential for
// conflict" between reservations and queue delays.
#include "resources/batch_queue_host.h"

#include <gtest/gtest.h>

#include "core/impl_cache.h"
#include "test_world.h"

namespace legion {
namespace {

using testing::Await;
using testing::TestWorld;

class BatchQueueHostTest : public ::testing::Test {
 protected:
  BatchQueueHostTest() : world_() {
    klass_ = world_.MakeClass("app", 64, 1.0);
    vault_ = world_.vaults[0];
  }

  HostSpec Spec(std::uint32_t cpus) {
    HostSpec spec;
    spec.name = "batch";
    spec.cpus = cpus;
    spec.memory_mb = 4096;
    spec.domain = 0;
    spec.load.initial = 0.0;
    spec.load.mean = 0.0;
    spec.load.volatility = 0.0;
    return spec;
  }

  BatchQueueHost* MakeFifoHost(std::uint32_t cpus) {
    auto* host = world_.kernel.AddActor<BatchQueueHost>(
        world_.kernel.minter().Mint(LoidSpace::kHost, 0), Spec(cpus),
        /*secret=*/777, std::make_unique<FifoQueue>(cpus),
        /*poll=*/Duration::Seconds(10));
    host->AddCompatibleVault(vault_->loid());
    host->StartQueuePolling();
    return host;
  }

  MauiHost* MakeMauiHost(std::uint32_t cpus) {
    auto* host = world_.kernel.AddActor<MauiHost>(
        world_.kernel.minter().Mint(LoidSpace::kHost, 0), Spec(cpus),
        /*secret=*/888, /*poll=*/Duration::Seconds(10));
    host->AddCompatibleVault(vault_->loid());
    host->StartQueuePolling();
    return host;
  }

  StartObjectRequest StartRequest(std::size_t count,
                                  ReservationToken token = {}) {
    StartObjectRequest request;
    request.class_loid = klass_->loid();
    for (std::size_t i = 0; i < count; ++i) {
      request.instances.push_back(
          world_.kernel.minter().Mint(LoidSpace::kObject, 0));
    }
    request.token = token;
    request.vault = vault_->loid();
    request.memory_mb = 64;
    request.cpu_fraction = 1.0;
    request.estimated_runtime = Duration::Minutes(30);
    request.factory = klass_->factory();
    return request;
  }

  ReservationRequest Reservation(SimTime start, Duration duration) {
    ReservationRequest request;
    request.vault = vault_->loid();
    request.start = start;
    request.duration = duration;
    request.type = ReservationType::OneShotTimesharing();
    request.requester = Loid(LoidSpace::kService, 0, 50);
    request.memory_mb = 64;
    request.cpu_fraction = 1.0;
    return request;
  }

  TestWorld world_;
  ClassObject* klass_;
  VaultObject* vault_;
};

TEST_F(BatchQueueHostTest, SubmissionSucceedsImmediatelyJobRunsLater) {
  auto* host = MakeFifoHost(2);
  Await<std::vector<Loid>> first, second, third;
  host->StartObject(StartRequest(1), first.Sink());
  host->StartObject(StartRequest(1), second.Sink());
  host->StartObject(StartRequest(1), third.Sink());
  // All three submissions succeed (batch semantics) ...
  EXPECT_TRUE(first.Get().ok());
  EXPECT_TRUE(second.Get().ok());
  EXPECT_TRUE(third.Get().ok());
  // ... but only two run (2 slots); the third waits in the queue.
  EXPECT_EQ(host->running_count(), 2u);
  EXPECT_EQ(host->queue().queued_count(), 1u);
  // When a job finishes, the poller starts the next one.
  host->FinishObject(first.Get()->front());
  world_.kernel.RunFor(Duration::Seconds(15));
  EXPECT_EQ(host->running_count(), 2u);
  EXPECT_EQ(host->queue().queued_count(), 0u);
}

TEST_F(BatchQueueHostTest, QueuedInstancesAreInactiveUntilStart) {
  auto* host = MakeFifoHost(1);
  Await<std::vector<Loid>> a, b;
  host->StartObject(StartRequest(1), a.Sink());
  host->StartObject(StartRequest(1), b.Sink());
  auto* waiting =
      dynamic_cast<LegionObject*>(world_.kernel.FindActor(b.Get()->front()));
  ASSERT_NE(waiting, nullptr);
  EXPECT_FALSE(waiting->active());
  host->FinishObject(a.Get()->front());
  world_.kernel.RunFor(Duration::Seconds(15));
  EXPECT_TRUE(waiting->active());
}

TEST_F(BatchQueueHostTest, HostKindNamesQueueFlavor) {
  auto* fifo = MakeFifoHost(2);
  EXPECT_EQ(fifo->attributes().Get("host_kind")->as_string(), "batch-fifo");
  EXPECT_EQ(fifo->attributes().Get("native_reservations")->as_bool(), false);
  auto* maui = MakeMauiHost(2);
  EXPECT_EQ(maui->attributes().Get("host_kind")->as_string(), "batch-maui");
  EXPECT_EQ(maui->attributes().Get("native_reservations")->as_bool(), true);
}

TEST_F(BatchQueueHostTest, QueueAttributesExported) {
  auto* host = MakeFifoHost(1);
  Await<std::vector<Loid>> a, b, c;
  host->StartObject(StartRequest(1), a.Sink());
  host->StartObject(StartRequest(1), b.Sink());
  host->StartObject(StartRequest(1), c.Sink());
  EXPECT_EQ(host->attributes().Get("queue_length")->as_int(), 2);
  EXPECT_EQ(host->attributes().Get("queue_running")->as_int(), 1);
  EXPECT_GT(host->attributes().Get("queue_wait_estimate_s")->as_double(), 0.0);
}

TEST_F(BatchQueueHostTest, MauiQueueReservesHeldWindow) {
  auto* host = MakeMauiHost(2);
  auto* queue = dynamic_cast<MauiLikeQueue*>(&host->queue());
  ASSERT_NE(queue, nullptr);
  const SimTime start = world_.kernel.Now() + Duration::Minutes(30);
  Await<ReservationToken> token;
  host->MakeReservation(Reservation(start, Duration::Hours(1)), token.Sink());
  ASSERT_TRUE(token.Get().ok());
  EXPECT_DOUBLE_EQ(queue->ReservedAt(start - Duration::Minutes(1)), 0.0);
  EXPECT_DOUBLE_EQ(queue->ReservedAt(start + Duration::Minutes(10)), 1.0);
  EXPECT_DOUBLE_EQ(queue->ReservedAt(start + Duration::Hours(1)), 0.0);
  // Cancellation frees the window.
  Await<bool> cancelled;
  host->CancelReservation(*token.Get(), cancelled.Sink());
  EXPECT_TRUE(*cancelled.Get());
  EXPECT_DOUBLE_EQ(queue->ReservedAt(start + Duration::Minutes(10)), 0.0);
}

TEST_F(BatchQueueHostTest, CancelBatchFreesEveryWindow) {
  auto* host = MakeMauiHost(2);
  auto* queue = dynamic_cast<MauiLikeQueue*>(&host->queue());
  ASSERT_NE(queue, nullptr);
  const SimTime start = world_.kernel.Now() + Duration::Minutes(30);
  Await<ReservationToken> first, second;
  host->MakeReservation(Reservation(start, Duration::Hours(1)), first.Sink());
  host->MakeReservation(
      Reservation(start + Duration::Hours(2), Duration::Hours(1)),
      second.Sink());
  ASSERT_TRUE(first.Get().ok());
  ASSERT_TRUE(second.Get().ok());
  const SimTime in_first = start + Duration::Minutes(10);
  const SimTime in_second = in_first + Duration::Hours(2);
  EXPECT_DOUBLE_EQ(queue->ReservedAt(in_first), 1.0);
  EXPECT_DOUBLE_EQ(queue->ReservedAt(in_second), 1.0);
  Await<std::size_t> released;
  host->CancelReservationBatch({*first.Get(), *second.Get()}, released.Sink());
  EXPECT_EQ(*released.Get(), 2u);
  EXPECT_DOUBLE_EQ(queue->ReservedAt(in_first), 0.0);
  EXPECT_DOUBLE_EQ(queue->ReservedAt(in_second), 0.0);
  EXPECT_EQ(host->reservations().live_count(), 0u);
}

TEST_F(BatchQueueHostTest, CancelAfterJobStartKeepsOtherHoldsWindow) {
  // Two holds share one window shape.  A job started under the first
  // spends that hold; cancelling the first token then must leave the
  // second hold's window reserved.
  auto* host = MakeMauiHost(2);
  auto* queue = dynamic_cast<MauiLikeQueue*>(&host->queue());
  ASSERT_NE(queue, nullptr);
  const SimTime start = world_.kernel.Now();
  const SimTime inside = start + Duration::Minutes(10);
  Await<ReservationToken> first, second;
  host->MakeReservation(Reservation(start, Duration::Hours(1)), first.Sink());
  host->MakeReservation(Reservation(start, Duration::Hours(1)), second.Sink());
  ASSERT_TRUE(first.Get().ok());
  ASSERT_TRUE(second.Get().ok());
  EXPECT_DOUBLE_EQ(queue->ReservedAt(inside), 2.0);
  Await<std::vector<Loid>> started;
  host->StartObject(StartRequest(1, *first.Get()), started.Sink());
  ASSERT_TRUE(started.Get().ok());
  ASSERT_EQ(host->running_count(), 1u);
  EXPECT_DOUBLE_EQ(queue->ReservedAt(inside), 1.0);

  Await<bool> cancelled;
  host->CancelReservation(*first.Get(), cancelled.Sink());
  EXPECT_TRUE(*cancelled.Get());
  EXPECT_DOUBLE_EQ(queue->ReservedAt(inside), 1.0);
  Await<bool> live;
  host->CheckReservation(*second.Get(), live.Sink());
  EXPECT_TRUE(*live.Get());
}

TEST_F(BatchQueueHostTest, LapsedHoldAdmitsWindowOnItsCpus) {
  // A 2-CPU hold whose confirmation lapses reserves nothing: a new
  // window needing both CPUs is admitted.
  auto* host = MakeMauiHost(2);
  auto* queue = dynamic_cast<MauiLikeQueue*>(&host->queue());
  ASSERT_NE(queue, nullptr);
  ReservationRequest unredeemed =
      Reservation(world_.kernel.Now(), Duration::Hours(1));
  unredeemed.cpu_fraction = 2.0;
  unredeemed.confirm_timeout = Duration::Minutes(1);
  Await<ReservationToken> lapsing;
  host->MakeReservation(unredeemed, lapsing.Sink());
  ASSERT_TRUE(lapsing.Get().ok());
  world_.kernel.RunFor(Duration::Minutes(2));
  EXPECT_DOUBLE_EQ(queue->ReservedAt(world_.kernel.Now()), 0.0);
  ReservationRequest window =
      Reservation(world_.kernel.Now(), Duration::Hours(1));
  window.cpu_fraction = 2.0;
  Await<ReservationToken> granted;
  host->MakeReservation(window, granted.Sink());
  EXPECT_TRUE(granted.Get().ok());
}

TEST_F(BatchQueueHostTest, LapsedHoldLetsBackfillStart) {
  // The same lapsed hold no longer holds back a token-less job that
  // needs both CPUs.
  auto* host = MakeMauiHost(2);
  ReservationRequest unredeemed =
      Reservation(world_.kernel.Now(), Duration::Hours(1));
  unredeemed.cpu_fraction = 2.0;
  unredeemed.confirm_timeout = Duration::Minutes(1);
  Await<ReservationToken> lapsing;
  host->MakeReservation(unredeemed, lapsing.Sink());
  ASSERT_TRUE(lapsing.Get().ok());
  world_.kernel.RunFor(Duration::Minutes(2));
  Await<std::vector<Loid>> backfill;
  host->StartObject(StartRequest(2), backfill.Sink());
  ASSERT_TRUE(backfill.Get().ok());
  EXPECT_EQ(host->running_count(), 2u);
  EXPECT_EQ(host->queue().queued_count(), 0u);
}

TEST_F(BatchQueueHostTest, ReleasedHoldWithdrawsQueuedJob) {
  // A job queued under a hold whose window has not opened is withdrawn
  // when the hold is cancelled: it never starts without a hold.
  auto* host = MakeMauiHost(1);
  const SimTime start = world_.kernel.Now() + Duration::Minutes(5);
  Await<ReservationToken> token;
  host->MakeReservation(Reservation(start, Duration::Hours(1)), token.Sink());
  ASSERT_TRUE(token.Get().ok());
  Await<std::vector<Loid>> submitted;
  host->StartObject(StartRequest(1, *token.Get()), submitted.Sink());
  ASSERT_TRUE(submitted.Get().ok());
  EXPECT_EQ(host->queue().queued_count(), 1u);
  EXPECT_EQ(host->running_count(), 0u);

  Await<bool> cancelled;
  host->CancelReservation(*token.Get(), cancelled.Sink());
  EXPECT_TRUE(*cancelled.Get());
  world_.kernel.RunFor(Duration::Minutes(70));
  EXPECT_EQ(host->running_count(), 0u);
  EXPECT_EQ(host->queue().queued_count(), 0u);
  EXPECT_EQ(host->queue().running_count(), 0u);
  EXPECT_EQ(world_.kernel.FindActor(submitted.Get()->front()), nullptr);
}

TEST_F(BatchQueueHostTest, ReleasedHoldStartsNoJobQueuedUnderIt) {
  // A reusable hold runs one job and queues a second on the 1-CPU host.
  // Cancelling the hold kills the first job; the slot that frees must
  // not start the second.
  auto* host = MakeMauiHost(1);
  ReservationRequest reusable =
      Reservation(world_.kernel.Now(), Duration::Hours(1));
  reusable.type = ReservationType::ReusableTimesharing();
  Await<ReservationToken> token;
  host->MakeReservation(reusable, token.Sink());
  ASSERT_TRUE(token.Get().ok());
  Await<std::vector<Loid>> first, second;
  host->StartObject(StartRequest(1, *token.Get()), first.Sink());
  host->StartObject(StartRequest(1, *token.Get()), second.Sink());
  ASSERT_TRUE(first.Get().ok());
  ASSERT_TRUE(second.Get().ok());
  ASSERT_EQ(host->running_count(), 1u);
  ASSERT_EQ(host->queue().queued_count(), 1u);

  Await<bool> cancelled;
  host->CancelReservation(*token.Get(), cancelled.Sink());
  EXPECT_TRUE(*cancelled.Get());
  EXPECT_EQ(host->running_count(), 0u);
  EXPECT_EQ(host->queue().queued_count(), 0u);
  EXPECT_EQ(host->queue().running_count(), 0u);
}

TEST_F(BatchQueueHostTest, ReleasedHoldStartsNeitherQueuedJob) {
  // A 2-CPU FIFO host runs a token-less 1-CPU job.  Under one reusable
  // hold a 2-CPU job waits at the head and a 1-CPU job behind it.
  // Withdrawing the head must not let the job behind it start on the
  // free CPU: the cancel withdraws both.
  auto* host = MakeFifoHost(2);
  Await<std::vector<Loid>> tokenless;
  host->StartObject(StartRequest(1), tokenless.Sink());
  ASSERT_TRUE(tokenless.Get().ok());
  ReservationRequest reusable =
      Reservation(world_.kernel.Now(), Duration::Hours(1));
  reusable.type = ReservationType::ReusableTimesharing();
  Await<ReservationToken> token;
  host->MakeReservation(reusable, token.Sink());
  ASSERT_TRUE(token.Get().ok());
  Await<std::vector<Loid>> wide, narrow;
  host->StartObject(StartRequest(2, *token.Get()), wide.Sink());
  host->StartObject(StartRequest(1, *token.Get()), narrow.Sink());
  ASSERT_TRUE(wide.Get().ok());
  ASSERT_TRUE(narrow.Get().ok());
  ASSERT_EQ(host->running_count(), 1u);
  ASSERT_EQ(host->queue().queued_count(), 2u);

  Await<bool> cancelled;
  host->CancelReservation(*token.Get(), cancelled.Sink());
  EXPECT_TRUE(*cancelled.Get());
  EXPECT_EQ(host->objects_started(), 1u);
  world_.kernel.RunFor(Duration::Minutes(1));
  EXPECT_EQ(host->objects_started(), 1u);
  EXPECT_EQ(host->running_count(), 1u);
  EXPECT_EQ(host->queue().running_count(), 1u);
  EXPECT_EQ(host->queue().queued_count(), 0u);
  EXPECT_EQ(world_.kernel.FindActor(narrow.Get()->front()), nullptr);
}

TEST_F(BatchQueueHostTest, KillWithdrawsQueuedJob) {
  // kill_object reaches an instance whose job is still queued: the job
  // leaves the queue at once and never starts.
  auto* host = MakeFifoHost(1);
  Await<std::vector<Loid>> first, second;
  host->StartObject(StartRequest(1), first.Sink());
  host->StartObject(StartRequest(1), second.Sink());
  ASSERT_TRUE(first.Get().ok());
  ASSERT_TRUE(second.Get().ok());
  ASSERT_EQ(host->running_count(), 1u);
  ASSERT_EQ(host->queue().queued_count(), 1u);
  const Loid queued = second.Get()->front();

  Await<bool> killed;
  host->KillObject(queued, killed.Sink());
  EXPECT_TRUE(*killed.Get());
  EXPECT_EQ(host->queue().queued_count(), 0u);
  EXPECT_EQ(world_.kernel.FindActor(queued), nullptr);
  host->FinishObject(first.Get()->front());
  world_.kernel.RunFor(Duration::Seconds(15));
  EXPECT_EQ(host->running_count(), 0u);
  EXPECT_EQ(host->queue().running_count(), 0u);
}

TEST_F(BatchQueueHostTest, KilledQueuedInstanceShrinksJobDemand) {
  // A 2-CPU host runs a 1-CPU job and queues a job of two 1-CPU
  // instances.  Killing one queued instance leaves a 1-CPU job, which
  // runs on the free CPU.
  auto* host = MakeFifoHost(2);
  Await<std::vector<Loid>> running, pair;
  host->StartObject(StartRequest(1), running.Sink());
  host->StartObject(StartRequest(2), pair.Sink());
  ASSERT_TRUE(running.Get().ok());
  ASSERT_TRUE(pair.Get().ok());
  ASSERT_EQ(host->queue().queued_count(), 1u);

  Await<bool> killed;
  host->KillObject(pair.Get()->front(), killed.Sink());
  EXPECT_TRUE(*killed.Get());
  world_.kernel.RunFor(Duration::Seconds(10));
  EXPECT_EQ(host->queue().queued_count(), 0u);
  EXPECT_EQ(host->running_count(), 2u);
  EXPECT_DOUBLE_EQ(host->queue().used_slots(), 2.0);
}

TEST_F(BatchQueueHostTest, FinishedInstanceFreesItsSlot) {
  // A 2-CPU host runs a job of two 1-CPU instances and queues a 1-CPU
  // job.  One instance finishing frees its CPU for the queued job.
  auto* host = MakeFifoHost(2);
  Await<std::vector<Loid>> pair, queued;
  host->StartObject(StartRequest(2), pair.Sink());
  host->StartObject(StartRequest(1), queued.Sink());
  ASSERT_TRUE(pair.Get().ok());
  ASSERT_TRUE(queued.Get().ok());
  ASSERT_EQ(host->queue().queued_count(), 1u);

  host->FinishObject(pair.Get()->front());
  world_.kernel.RunFor(Duration::Seconds(10));
  EXPECT_EQ(host->queue().queued_count(), 0u);
  EXPECT_EQ(host->queue().running_count(), 2u);
  auto* object = dynamic_cast<LegionObject*>(
      world_.kernel.FindActor(queued.Get()->front()));
  ASSERT_NE(object, nullptr);
  EXPECT_TRUE(object->active());
}

TEST_F(BatchQueueHostTest, StartFetchesBinaryThroughCache) {
  // A batch host launches like any host: a start that names an
  // implementation waits for its binary, here through the cache.
  auto* host = MakeFifoHost(1);
  auto* cache = world_.kernel.AddActor<ImplementationCacheObject>(
      world_.kernel.minter().Mint(LoidSpace::kService, 0), /*domain=*/0);
  host->SetImplementationCache(cache->loid());
  StartObjectRequest request = StartRequest(1);
  request.implementation = "x86/Linux";
  request.binary_bytes = 1 << 20;
  Await<std::vector<Loid>> started;
  host->StartObject(request, started.Sink());
  EXPECT_FALSE(started.Ready());  // the binary is on its way
  world_.kernel.RunFor(Duration::Seconds(5));
  ASSERT_TRUE(started.Ready());
  ASSERT_TRUE(started.Get().ok());
  EXPECT_EQ(cache->misses(), 1u);
  EXPECT_EQ(host->running_count(), 1u);
}

TEST_F(BatchQueueHostTest, BatchAdmissionConsultsQueuePerSlot) {
  // Regression: two windows that individually fit the 1-CPU Maui
  // calendar but jointly exceed it arrive in one batch.  The queue veto
  // runs interleaved with admission, so slot 1 is judged against slot
  // 0's already-registered window -- admit one, refuse the other --
  // exactly as two sequential MakeReservation calls would decide.
  auto* host = MakeMauiHost(1);
  auto* queue = dynamic_cast<MauiLikeQueue*>(&host->queue());
  ASSERT_NE(queue, nullptr);
  const SimTime start = world_.kernel.Now() + Duration::Minutes(10);
  ReservationBatchRequest batch;
  batch.requester = Loid(LoidSpace::kService, 0, 50);
  batch.batch_id = 1;
  batch.slots.push_back(
      BatchSlotRequest{0, Reservation(start, Duration::Hours(1))});
  batch.slots.push_back(
      BatchSlotRequest{1, Reservation(start, Duration::Hours(1))});
  Await<ReservationBatchReply> reply;
  host->MakeReservationBatch(batch, reply.Sink());
  ASSERT_TRUE(reply.Ready());
  ASSERT_TRUE(reply.Get().ok());
  const auto& outcomes = reply.Get()->outcomes;
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_TRUE(outcomes[0].status.ok());
  EXPECT_EQ(outcomes[1].status.code(), ErrorCode::kNoResources);
  // One CPU reserved, one live reservation: no overcommit.
  EXPECT_DOUBLE_EQ(queue->ReservedAt(start + Duration::Minutes(10)), 1.0);
  EXPECT_EQ(host->reservations().live_count(), 1u);
}

TEST_F(BatchQueueHostTest, SingleRequestsNamingProbedVaultCannotOvercommit) {
  // Regression: two single requests for the same window, both naming a
  // vault the 1-CPU Maui host must probe before granting.  The queue
  // veto runs after the probe, per request, so the second request sees
  // the first one's hold and is refused.
  auto* host = MakeMauiHost(1);
  auto* queue = dynamic_cast<MauiLikeQueue*>(&host->queue());
  ASSERT_NE(queue, nullptr);
  const SimTime start = world_.kernel.Now() + Duration::Minutes(10);
  ReservationRequest request = Reservation(start, Duration::Hours(1));
  request.vault = world_.vaults[1]->loid();  // not on the compatible list
  Await<ReservationToken> first, second;
  host->MakeReservation(request, first.Sink());
  host->MakeReservation(request, second.Sink());
  world_.kernel.RunFor(Duration::Seconds(5));
  ASSERT_TRUE(first.Ready());
  ASSERT_TRUE(second.Ready());
  EXPECT_EQ(first.Get().ok() + second.Get().ok(), 1);
  const ErrorCode refused =
      first.Get().ok() ? second.Get().code() : first.Get().code();
  EXPECT_EQ(refused, ErrorCode::kNoResources);
  EXPECT_DOUBLE_EQ(queue->ReservedAt(start + Duration::Minutes(10)), 1.0);
  EXPECT_EQ(host->reservations().live_count(), 1u);
}

TEST_F(BatchQueueHostTest, FifoHostKeepsReservationsInHostTable) {
  auto* host = MakeFifoHost(2);
  Await<ReservationToken> token;
  host->MakeReservation(
      Reservation(world_.kernel.Now(), Duration::Hours(1)), token.Sink());
  ASSERT_TRUE(token.Get().ok());
  // Host-table reservation; the FIFO queue has no opinion on it.
  EXPECT_EQ(host->reservations().live_count(), 1u);
}

TEST_F(BatchQueueHostTest, MauiHonorsReservedWindowDespiteBacklog) {
  auto* host = MakeMauiHost(1);
  // Reserve the single CPU starting in 5 minutes.
  const SimTime window = world_.kernel.Now() + Duration::Minutes(5);
  Await<ReservationToken> token;
  host->MakeReservation(Reservation(window, Duration::Hours(1)), token.Sink());
  ASSERT_TRUE(token.Get().ok());
  // A long competing job arrives now; Maui refuses to start it because
  // it would overrun the reserved window.
  Await<std::vector<Loid>> competing;
  host->StartObject(StartRequest(1), competing.Sink());
  ASSERT_TRUE(competing.Get().ok());
  EXPECT_EQ(host->running_count(), 0u);
  // The reserved job is submitted and starts on time.
  Await<std::vector<Loid>> reserved;
  host->StartObject(StartRequest(1, *token.Get()), reserved.Sink());
  ASSERT_TRUE(reserved.Get().ok());
  world_.kernel.RunFor(Duration::Minutes(6));
  auto* object = dynamic_cast<LegionObject*>(
      world_.kernel.FindActor(reserved.Get()->front()));
  ASSERT_NE(object, nullptr);
  EXPECT_TRUE(object->active());
  EXPECT_EQ(host->queue().reservation_conflicts(), 0u);
}

TEST_F(BatchQueueHostTest, FifoHostConflictsWhenQueueDelaysReservedJob) {
  // The paper's "unavoidable potential for conflict": the FIFO queue
  // doesn't know about the host-table reservation, so a backlog pushes
  // the reserved job past its window.
  auto* host = MakeFifoHost(1);
  // Fill the machine with a job the queue will run for a long time.
  Await<std::vector<Loid>> blocker;
  host->StartObject(StartRequest(1), blocker.Sink());
  ASSERT_TRUE(blocker.Get().ok());
  // Reserve a short window opening in 1 minute.
  const SimTime window = world_.kernel.Now() + Duration::Minutes(1);
  Await<ReservationToken> token;
  host->MakeReservation(Reservation(window, Duration::Minutes(2)),
                        token.Sink());
  ASSERT_TRUE(token.Get().ok());
  Await<std::vector<Loid>> reserved;
  host->StartObject(StartRequest(1, *token.Get()), reserved.Sink());
  ASSERT_TRUE(reserved.Get().ok());
  // The blocker only finishes after the window has closed.
  world_.kernel.RunFor(Duration::Minutes(10));
  host->FinishObject(blocker.Get()->front());
  world_.kernel.RunFor(Duration::Minutes(1));
  EXPECT_EQ(host->queue().reservation_conflicts(), 1u);
}

TEST_F(BatchQueueHostTest, CondorVacateSuspendsObjects) {
  HostSpec spec = Spec(2);
  auto* host = world_.kernel.AddActor<BatchQueueHost>(
      world_.kernel.minter().Mint(LoidSpace::kHost, 0), spec, 999,
      std::make_unique<CondorLikeQueue>(2.0, /*owner_return=*/1.0, 3),
      Duration::Seconds(10));
  host->AddCompatibleVault(vault_->loid());
  Await<std::vector<Loid>> started;
  host->StartObject(StartRequest(1), started.Sink());
  ASSERT_TRUE(started.Get().ok());
  auto* object = dynamic_cast<LegionObject*>(
      world_.kernel.FindActor(started.Get()->front()));
  ASSERT_TRUE(object->active());
  // Next poll: owner returns, job vacated (and immediately requeued +
  // restarted within the same cycle -- cycle stealing continues).
  host->PollQueueNow();
  EXPECT_GE(host->queue().jobs_vacated(), 1u);
}

TEST_F(BatchQueueHostTest, VacatedObjectResumesWithStateIntact) {
  // Full suspend/resume cycle: the vacated object deactivates in place
  // and reactivates when the queue restarts the job, keeping its
  // attribute state.
  HostSpec spec = Spec(1);
  // p=1 the first polls, then owner leaves: emulate by polling once with
  // a one-job queue of slots 1 -- vacate + immediate restart happen in
  // the same scheduling cycle.
  auto* host = world_.kernel.AddActor<BatchQueueHost>(
      world_.kernel.minter().Mint(LoidSpace::kHost, 0), spec, 1001,
      std::make_unique<CondorLikeQueue>(1.0, /*owner_return=*/1.0, 7),
      Duration::Seconds(10));
  host->AddCompatibleVault(vault_->loid());
  Await<std::vector<Loid>> started;
  host->StartObject(StartRequest(1), started.Sink());
  ASSERT_TRUE(started.Get().ok());
  auto* object = dynamic_cast<LegionObject*>(
      world_.kernel.FindActor(started.Get()->front()));
  ASSERT_NE(object, nullptr);
  ASSERT_TRUE(object->active());
  object->mutable_attributes().Set("progress", 7);
  host->PollQueueNow();  // vacate + restart in one cycle
  EXPECT_GE(host->queue().jobs_vacated(), 1u);
  EXPECT_EQ(host->queue().running_count(), 1u);
  EXPECT_EQ(host->queue().queued_count(), 0u);
  EXPECT_TRUE(object->active());
  EXPECT_EQ(object->attributes().Get("progress")->as_int(), 7);
  EXPECT_EQ(host->running_count(), 1u);
}

}  // namespace
}  // namespace legion
