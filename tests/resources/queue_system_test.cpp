#include "resources/queue_system.h"

#include <gtest/gtest.h>

namespace legion {
namespace {

// The instance a one-instance job `id` holds.
Loid InstanceOf(std::uint64_t id) { return Loid(LoidSpace::kObject, 0, id); }

BatchJob Job(std::uint64_t id, double cpus = 1.0,
             Duration runtime = Duration::Minutes(30), SimTime submitted = {}) {
  BatchJob job;
  job.id = id;
  job.instances = {InstanceOf(id)};
  job.cpu_fraction = cpus;
  job.estimated_runtime = runtime;
  job.submitted = submitted;
  return job;
}

// A job of two 1-CPU instances.
BatchJob PairJob(std::uint64_t id) {
  BatchJob job = Job(id);
  job.instances.push_back(Loid(LoidSpace::kObject, 0, 100 + id));
  return job;
}

// A job reserved under hold `serial` for the window [start, end).
BatchJob ReservedJob(std::uint64_t id, std::uint64_t serial, SimTime start,
                     SimTime end) {
  BatchJob job = Job(id, 1.0, end - start);
  job.hold = serial;
  job.window_start = start;
  job.window_end = end;
  return job;
}

// A hold of `cpus` over [start, end), as the host's table records it.
ReservationRecord Hold(SimTime start, SimTime end, double cpus,
                       std::uint64_t serial = 0) {
  ReservationRecord hold;
  hold.token.serial = serial;
  hold.token.start = start;
  hold.token.duration = end - start;
  hold.cpu_fraction = cpus;
  return hold;
}

// A hold source over a list the test owns and may change.
QueueSystem::HoldSource HoldsFrom(const QueueSystem::Holds& holds) {
  return [&holds] { return holds; };
}

TEST(FifoQueueTest, StartsInOrderUpToSlots) {
  FifoQueue queue(2.0);
  std::vector<std::uint64_t> started;
  queue.SetCallbacks([&](const BatchJob& job) { started.push_back(job.id); },
                     nullptr);
  for (std::uint64_t i = 1; i <= 4; ++i) queue.Submit(Job(i));
  queue.Poll(SimTime(0));
  EXPECT_EQ(started, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(queue.queued_count(), 2u);
  EXPECT_EQ(queue.running_count(), 2u);
}

TEST(FifoQueueTest, StrictFcfsBlocksBehindBigJob) {
  FifoQueue queue(2.0);
  std::vector<std::uint64_t> started;
  queue.SetCallbacks([&](const BatchJob& job) { started.push_back(job.id); },
                     nullptr);
  queue.Submit(Job(1, 2.0));  // fills the machine
  queue.Submit(Job(2, 2.0));  // must wait
  queue.Submit(Job(3, 0.5));  // FIFO: must also wait (no backfill)
  queue.Poll(SimTime(0));
  EXPECT_EQ(started, (std::vector<std::uint64_t>{1}));
  queue.Withdraw(InstanceOf(1));
  queue.Poll(SimTime(1));
  EXPECT_EQ(started, (std::vector<std::uint64_t>{1, 2}));
}

TEST(FifoQueueTest, JobFinishedFreesSlot) {
  FifoQueue queue(1.0);
  int starts = 0;
  queue.SetCallbacks([&](const BatchJob&) { ++starts; }, nullptr);
  queue.Submit(Job(1));
  queue.Submit(Job(2));
  queue.Poll(SimTime(0));
  EXPECT_EQ(starts, 1);
  queue.Withdraw(InstanceOf(1));
  queue.Poll(SimTime(1));
  EXPECT_EQ(starts, 2);
}

TEST(QueueSystemTest, CancelQueuedJob) {
  FifoQueue queue(1.0);
  queue.Submit(Job(1, 2.0));  // cannot start (too big) -- stays queued
  EXPECT_TRUE(queue.Withdraw(InstanceOf(1)));
  EXPECT_FALSE(queue.Withdraw(InstanceOf(1)));
  EXPECT_EQ(queue.queued_count(), 0u);
}

TEST(QueueSystemTest, WithdrawShrinksQueuedJobThenDropsIt) {
  FifoQueue queue(1.0);
  const BatchJob pair = PairJob(1);  // two 1-CPU instances: too big to start
  queue.Submit(pair);
  const double full_wait = queue.EstimateWait(SimTime(0)).seconds();
  EXPECT_FALSE(queue.Withdraw(InstanceOf(9)));  // no job holds it
  EXPECT_TRUE(queue.Withdraw(pair.instances[0]));
  EXPECT_EQ(queue.queued_count(), 1u);
  EXPECT_DOUBLE_EQ(queue.EstimateWait(SimTime(0)).seconds(), full_wait / 2);
  EXPECT_TRUE(queue.Withdraw(pair.instances[1]));
  EXPECT_EQ(queue.queued_count(), 0u);
  EXPECT_FALSE(queue.Withdraw(pair.instances[1]));
}

TEST(QueueSystemTest, WithdrawFromRunningJobFreesItsSlot) {
  FifoQueue queue(2.0);
  const BatchJob pair = PairJob(1);
  queue.Submit(pair);
  queue.Submit(Job(2));
  queue.Poll(SimTime(0));
  ASSERT_EQ(queue.running_count(), 1u);
  EXPECT_DOUBLE_EQ(queue.used_slots(), 2.0);
  EXPECT_TRUE(queue.Withdraw(pair.instances[0]));
  EXPECT_DOUBLE_EQ(queue.used_slots(), 1.0);
  queue.Poll(SimTime(1));
  EXPECT_EQ(queue.running_count(), 2u);
  EXPECT_EQ(queue.queued_count(), 0u);
}

TEST(QueueSystemTest, CountLateReservationsCountsAJobOnce) {
  FifoQueue queue(1.0);
  queue.Submit(Job(1));  // occupies the one slot
  const SimTime window_end = SimTime(0) + Duration::Minutes(2);
  queue.Submit(ReservedJob(2, /*serial=*/7, SimTime(0), window_end));
  queue.Poll(SimTime(0));
  ASSERT_EQ(queue.queued_count(), 1u);
  queue.CountLateReservations(window_end - Duration::Seconds(1));
  EXPECT_EQ(queue.reservation_conflicts(), 0u);
  queue.CountLateReservations(window_end);
  EXPECT_EQ(queue.reservation_conflicts(), 1u);
  queue.CountLateReservations(window_end + Duration::Minutes(1));
  EXPECT_EQ(queue.reservation_conflicts(), 1u);
  // Its late start does not count it again.
  queue.Withdraw(InstanceOf(1));
  queue.Poll(window_end + Duration::Minutes(2));
  EXPECT_EQ(queue.running_count(), 1u);
  EXPECT_EQ(queue.reservation_conflicts(), 1u);
}

TEST(QueueSystemTest, WaitEstimateGrowsWithBacklog) {
  FifoQueue queue(2.0);
  const Duration empty_wait = queue.EstimateWait(SimTime(0));
  for (std::uint64_t i = 1; i <= 10; ++i) {
    queue.Submit(Job(i, 1.0, Duration::Hours(1)));
  }
  EXPECT_GT(queue.EstimateWait(SimTime(0)), empty_wait);
  EXPECT_NEAR(queue.EstimateWait(SimTime(0)).seconds(), 5 * 3600.0, 1.0);
}

TEST(CondorLikeQueueTest, OwnerReturnVacatesAndRequeues) {
  CondorLikeQueue queue(4.0, /*owner_return_prob=*/1.0, /*seed=*/5);
  std::vector<std::uint64_t> started, vacated;
  queue.SetCallbacks([&](const BatchJob& job) { started.push_back(job.id); },
                     [&](const BatchJob& job) { vacated.push_back(job.id); });
  queue.Submit(Job(1));
  queue.Poll(SimTime(0));
  ASSERT_EQ(started.size(), 1u);
  // Next poll: the owner returns (p=1), the job is vacated and restarts.
  queue.Poll(SimTime(1));
  EXPECT_EQ(vacated, (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(started.size(), 2u);  // restarted within the same cycle
  EXPECT_EQ(queue.jobs_vacated(), 1u);
}

TEST(CondorLikeQueueTest, NoPreemptionWhenOwnersAway) {
  CondorLikeQueue queue(4.0, /*owner_return_prob=*/0.0, /*seed=*/5);
  int vacates = 0;
  queue.SetCallbacks(nullptr, [&](const BatchJob&) { ++vacates; });
  queue.Submit(Job(1));
  for (int i = 0; i < 50; ++i) queue.Poll(SimTime(i));
  EXPECT_EQ(vacates, 0);
}

TEST(LoadLevelerLikeQueueTest, ShortJobsJumpTheQueue) {
  LoadLevelerLikeQueue queue(1.0);
  std::vector<std::uint64_t> started;
  queue.SetCallbacks([&](const BatchJob& job) { started.push_back(job.id); },
                     nullptr);
  queue.Submit(Job(1, 1.0, Duration::Hours(8)));   // class 0
  queue.Submit(Job(2, 1.0, Duration::Minutes(5))); // class 3
  queue.Submit(Job(3, 1.0, Duration::Hours(2)));   // class 1
  queue.Poll(SimTime(0));
  ASSERT_EQ(started.size(), 1u);
  EXPECT_EQ(started[0], 2u);  // the short job wins
  queue.Withdraw(InstanceOf(2));
  queue.Poll(SimTime(1));
  EXPECT_EQ(started[1], 3u);  // then the medium one
}

TEST(LoadLevelerLikeQueueTest, AgingEventuallyPromotesLongJobs) {
  LoadLevelerLikeQueue queue(1.0);  // ages one class per 10 minutes
  std::vector<std::uint64_t> started;
  queue.SetCallbacks([&](const BatchJob& job) { started.push_back(job.id); },
                     nullptr);
  // An old long job vs a fresh short job: age credit (4 classes' worth
  // after 40+ minutes) beats the class gap of 3.
  queue.Submit(Job(1, 1.0, Duration::Hours(8),
                   SimTime(0)));  // submitted at t=0
  const SimTime now = SimTime(0) + Duration::Minutes(50);
  BatchJob fresh = Job(2, 1.0, Duration::Minutes(5), now);
  queue.Submit(fresh);
  queue.Poll(now);
  ASSERT_EQ(started.size(), 1u);
  EXPECT_EQ(started[0], 1u);
}

TEST(LoadLevelerLikeQueueTest, ClassOfBoundaries) {
  EXPECT_EQ(LoadLevelerLikeQueue::ClassOf(Job(1, 1, Duration::Minutes(10))), 3);
  EXPECT_EQ(LoadLevelerLikeQueue::ClassOf(Job(1, 1, Duration::Minutes(30))), 2);
  EXPECT_EQ(LoadLevelerLikeQueue::ClassOf(Job(1, 1, Duration::Hours(2))), 1);
  EXPECT_EQ(LoadLevelerLikeQueue::ClassOf(Job(1, 1, Duration::Hours(8))), 0);
}

TEST(MauiLikeQueueTest, SupportsReservations) {
  MauiLikeQueue queue(4.0);
  EXPECT_TRUE(queue.SupportsReservations());
  FifoQueue fifo(4.0);
  EXPECT_FALSE(fifo.SupportsReservations());
}

TEST(MauiLikeQueueTest, ReservationWindowBlocksConflictingBackfill) {
  MauiLikeQueue queue(2.0);
  std::vector<std::uint64_t> started;
  queue.SetCallbacks([&](const BatchJob& job) { started.push_back(job.id); },
                     nullptr);
  // Both CPUs are held for [10min, 70min).
  const QueueSystem::Holds holds = {Hold(SimTime(0) + Duration::Minutes(10),
                                         SimTime(0) + Duration::Minutes(70),
                                         2.0)};
  queue.SetHoldSource(HoldsFrom(holds));
  // A 30-minute job submitted now would overrun into the window: blocked.
  queue.Submit(Job(1, 2.0, Duration::Minutes(30)));
  queue.Poll(SimTime(0));
  EXPECT_TRUE(started.empty());
  // A 5-minute job fits before the window: backfilled.
  queue.Submit(Job(2, 2.0, Duration::Minutes(5)));
  queue.Poll(SimTime(0));
  EXPECT_EQ(started, (std::vector<std::uint64_t>{2}));
}

TEST(MauiLikeQueueTest, ReservedJobStartsInItsWindow) {
  MauiLikeQueue queue(2.0);
  std::vector<std::uint64_t> started;
  queue.SetCallbacks([&](const BatchJob& job) { started.push_back(job.id); },
                     nullptr);
  const SimTime window_start = SimTime(0) + Duration::Minutes(10);
  const SimTime window_end = SimTime(0) + Duration::Minutes(70);
  const QueueSystem::Holds holds = {Hold(window_start, window_end, 1.0)};
  queue.SetHoldSource(HoldsFrom(holds));
  BatchJob reserved = Job(1, 1.0, Duration::Minutes(60));
  reserved.hold = 1;
  reserved.window_start = window_start;
  reserved.window_end = window_end;
  queue.Submit(reserved);
  queue.Poll(SimTime(0));
  EXPECT_TRUE(started.empty());  // window not open
  queue.Poll(window_start);
  EXPECT_EQ(started, (std::vector<std::uint64_t>{1}));
}

TEST(MauiLikeQueueTest, ReservedAtAggregatesWindows) {
  MauiLikeQueue queue(8.0);
  EXPECT_DOUBLE_EQ(queue.ReservedAt(SimTime(120)), 0.0);  // no source
  QueueSystem::Holds holds = {Hold(SimTime(100), SimTime(200), 2.0),
                              Hold(SimTime(150), SimTime(250), 3.0)};
  queue.SetHoldSource(HoldsFrom(holds));
  EXPECT_DOUBLE_EQ(queue.ReservedAt(SimTime(99)), 0.0);
  EXPECT_DOUBLE_EQ(queue.ReservedAt(SimTime(120)), 2.0);
  EXPECT_DOUBLE_EQ(queue.ReservedAt(SimTime(180)), 5.0);
  EXPECT_DOUBLE_EQ(queue.ReservedAt(SimTime(220)), 3.0);
  // The queue keeps no copy: a hold the source drops reserves nothing.
  holds.erase(holds.begin());
  EXPECT_DOUBLE_EQ(queue.ReservedAt(SimTime(120)), 0.0);
  EXPECT_DOUBLE_EQ(queue.ReservedAt(SimTime(220)), 3.0);
}

TEST(MauiLikeQueueTest, RunningJobsHoldReservesNothing) {
  // Two 1-CPU holds: the first open now, the second opening in 30
  // minutes.  Once the first hold's job runs, its slot is real and the
  // hold reserves nothing more; the queued job's hold still reserves.
  MauiLikeQueue queue(2.0);
  const SimTime now = SimTime(0);
  const SimTime later = now + Duration::Minutes(30);
  const SimTime end = now + Duration::Minutes(90);
  const QueueSystem::Holds holds = {Hold(now, end, 1.0, /*serial=*/1),
                                    Hold(later, end, 1.0, /*serial=*/2)};
  queue.SetHoldSource(HoldsFrom(holds));
  EXPECT_DOUBLE_EQ(queue.ReservedAt(now + Duration::Minutes(10)), 1.0);
  EXPECT_DOUBLE_EQ(queue.ReservedAt(later + Duration::Minutes(10)), 2.0);
  queue.Submit(ReservedJob(1, /*serial=*/1, now, end));
  queue.Submit(ReservedJob(2, /*serial=*/2, later, end));
  queue.Poll(now);
  ASSERT_EQ(queue.running_count(), 1u);
  ASSERT_EQ(queue.queued_count(), 1u);
  EXPECT_DOUBLE_EQ(queue.ReservedAt(now + Duration::Minutes(10)), 0.0);
  EXPECT_DOUBLE_EQ(queue.ReservedAt(later + Duration::Minutes(10)), 1.0);
}

TEST(MauiLikeQueueTest, BackfillSkipsBlockedHeadJob) {
  MauiLikeQueue queue(2.0);
  std::vector<std::uint64_t> started;
  queue.SetCallbacks([&](const BatchJob& job) { started.push_back(job.id); },
                     nullptr);
  const QueueSystem::Holds holds = {Hold(SimTime(0) + Duration::Minutes(20),
                                         SimTime(0) + Duration::Minutes(90),
                                         2.0)};
  queue.SetHoldSource(HoldsFrom(holds));
  queue.Submit(Job(1, 2.0, Duration::Hours(1)));    // blocked by the window
  queue.Submit(Job(2, 1.0, Duration::Minutes(10))); // fits before it
  queue.Poll(SimTime(0));
  EXPECT_EQ(started, (std::vector<std::uint64_t>{2}));
}

}  // namespace
}  // namespace legion
