#include "sim/kernel.h"

#include <gtest/gtest.h>

#include "test_world.h"

namespace legion {
namespace {

using testing::Count;

NetworkParams QuietNet() {
  NetworkParams params;
  params.jitter_fraction = 0.0;
  return params;
}

TEST(KernelTest, ClockAdvancesWithEvents) {
  SimKernel kernel(QuietNet());
  EXPECT_EQ(kernel.Now(), SimTime::Zero());
  std::vector<std::int64_t> seen;
  kernel.ScheduleAfter(Duration::Millis(5),
                       [&] { seen.push_back(kernel.Now().micros()); });
  kernel.ScheduleAfter(Duration::Millis(2),
                       [&] { seen.push_back(kernel.Now().micros()); });
  kernel.Run();
  EXPECT_EQ(seen, (std::vector<std::int64_t>{2000, 5000}));
}

TEST(KernelTest, RunUntilStopsAtHorizon) {
  SimKernel kernel(QuietNet());
  bool late_ran = false;
  kernel.ScheduleAt(SimTime(100), [] {});
  kernel.ScheduleAt(SimTime(1000), [&] { late_ran = true; });
  const std::uint64_t executed = kernel.RunUntil(SimTime(500));
  EXPECT_EQ(executed, 1u);
  EXPECT_FALSE(late_ran);
  EXPECT_EQ(kernel.Now(), SimTime(500));
  kernel.Run();
  EXPECT_TRUE(late_ran);
}

TEST(KernelTest, ScheduleBetweenHorizonAndPendingEventRunsFirst) {
  // RunUntil peeks at the event at 1000 and stops; the caller may then
  // schedule anywhere from the horizon on, before that event too.
  SimKernel kernel(QuietNet());
  std::vector<int> order;
  kernel.ScheduleAt(SimTime(100), [&] { order.push_back(0); });
  kernel.ScheduleAt(SimTime(1000), [&] { order.push_back(3); });
  kernel.ScheduleAt(SimTime(3600000000), [&] { order.push_back(5); });
  kernel.RunUntil(SimTime(500));
  EXPECT_EQ(kernel.Now(), SimTime(500));
  kernel.ScheduleAt(SimTime(700), [&] { order.push_back(2); });
  kernel.ScheduleAt(SimTime(500), [&] { order.push_back(1); });
  kernel.ScheduleAt(SimTime(1000), [&] { order.push_back(4); });
  kernel.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(kernel.Now(), SimTime(3600000000));
}

TEST(KernelTest, CancelScheduledEvent) {
  SimKernel kernel(QuietNet());
  bool ran = false;
  EventId id = kernel.ScheduleAfter(Duration::Millis(1), [&] { ran = true; });
  EXPECT_TRUE(kernel.Cancel(id));
  kernel.Run();
  EXPECT_FALSE(ran);
}

TEST(KernelTest, PeriodicFiresRepeatedly) {
  SimKernel kernel(QuietNet());
  int fires = 0;
  kernel.SchedulePeriodic(Duration::Seconds(1), [&] { ++fires; });
  kernel.RunUntil(SimTime::Zero() + Duration::Seconds(10.5));
  EXPECT_EQ(fires, 10);
}

TEST(KernelTest, PeriodicCancelStops) {
  SimKernel kernel(QuietNet());
  int fires = 0;
  auto id = kernel.SchedulePeriodic(Duration::Seconds(1), [&] { ++fires; });
  kernel.RunUntil(SimTime::Zero() + Duration::Seconds(3.5));
  kernel.CancelPeriodic(id);
  kernel.RunUntil(SimTime::Zero() + Duration::Seconds(10));
  EXPECT_EQ(fires, 3);
}

TEST(KernelTest, PeriodicCanCancelItself) {
  SimKernel kernel(QuietNet());
  int fires = 0;
  SimKernel::PeriodicId id = 0;
  id = kernel.SchedulePeriodic(Duration::Seconds(1), [&] {
    if (++fires == 2) kernel.CancelPeriodic(id);
  });
  kernel.RunUntil(SimTime::Zero() + Duration::Seconds(10));
  EXPECT_EQ(fires, 2);
}

TEST(KernelTest, ActorLifecycle) {
  SimKernel kernel(QuietNet());
  const Loid loid = kernel.minter().Mint(LoidSpace::kObject, 0);
  auto* actor = kernel.AddActor<Actor>(loid);
  EXPECT_EQ(kernel.FindActor(loid), actor);
  EXPECT_EQ(kernel.actor_count(), 1u);
  kernel.RemoveActor(loid);
  EXPECT_EQ(kernel.FindActor(loid), nullptr);
  EXPECT_EQ(kernel.actor_count(), 0u);
}

TEST(KernelTest, SendPaysNetworkLatency) {
  NetworkParams params = QuietNet();
  params.intra_domain_latency = Duration::Millis(1);
  SimKernel kernel(params);
  const Loid a(LoidSpace::kObject, 0, 1);
  const Loid b(LoidSpace::kObject, 0, 2);
  kernel.network().RegisterEndpoint(a, 0);
  kernel.network().RegisterEndpoint(b, 0);
  SimTime delivered;
  kernel.Send(a, b, 100, [&] { delivered = kernel.Now(); });
  kernel.Run();
  EXPECT_GE(delivered, SimTime(1000));
  EXPECT_EQ(Count(kernel, "messages_sent", "kernel"), 1u);
  EXPECT_EQ(Count(kernel, "bytes_sent", "kernel"), 100u);
}

TEST(KernelTest, AsyncCallDeliversReply) {
  SimKernel kernel(QuietNet());
  const Loid a(LoidSpace::kObject, 0, 1);
  const Loid b(LoidSpace::kObject, 0, 2);
  Result<int> got(0);
  kernel.AsyncCall<int>(
      a, b, 64, 64, Duration::Seconds(5),
      [](Callback<int> reply) { reply(41 + 1); },
      [&](Result<int> r) { got = std::move(r); });
  kernel.Run();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, 42);
  EXPECT_EQ(Count(kernel, "rpcs_started", "kernel"), 1u);
  EXPECT_EQ(Count(kernel, "rpcs_completed", "kernel"), 1u);
  EXPECT_EQ(Count(kernel, "rpcs_timed_out", "kernel"), 0u);
}

TEST(KernelTest, AsyncCallTimesOutWhenCalleeSilent) {
  SimKernel kernel(QuietNet());
  const Loid a(LoidSpace::kObject, 0, 1);
  const Loid b(LoidSpace::kObject, 0, 2);
  Result<int> got(0);
  bool fired = false;
  kernel.AsyncCall<int>(
      a, b, 64, 64, Duration::Seconds(5),
      [](Callback<int>) { /* never replies */ },
      [&](Result<int> r) {
        fired = true;
        got = std::move(r);
      });
  kernel.Run();
  EXPECT_TRUE(fired);
  EXPECT_FALSE(got.ok());
  EXPECT_EQ(got.code(), ErrorCode::kTimeout);
  EXPECT_EQ(Count(kernel, "rpcs_timed_out", "kernel"), 1u);
}

TEST(KernelTest, AsyncCallTimesOutOnDroppedRequest) {
  NetworkParams params = QuietNet();
  params.intra_domain_loss = 1.0;  // everything is lost
  SimKernel kernel(params);
  const Loid a(LoidSpace::kObject, 0, 1);
  const Loid b(LoidSpace::kObject, 0, 2);
  kernel.network().RegisterEndpoint(a, 0);
  kernel.network().RegisterEndpoint(b, 0);
  bool callee_ran = false;
  Result<int> got(0);
  kernel.AsyncCall<int>(
      a, b, 64, 64, Duration::Seconds(1),
      [&](Callback<int> reply) {
        callee_ran = true;
        reply(1);
      },
      [&](Result<int> r) { got = std::move(r); });
  kernel.Run();
  EXPECT_FALSE(callee_ran);
  EXPECT_EQ(got.code(), ErrorCode::kTimeout);
  EXPECT_EQ(Count(kernel, "messages_dropped", "kernel"), 1u);
}

TEST(KernelTest, AsyncCallDoneFiresExactlyOnce) {
  SimKernel kernel(QuietNet());
  const Loid a(LoidSpace::kObject, 0, 1);
  const Loid b(LoidSpace::kObject, 0, 2);
  int calls = 0;
  kernel.AsyncCall<int>(
      a, b, 64, 64, Duration::Millis(1),
      [&kernel](Callback<int> reply) {
        // Reply *after* the timeout has already fired.
        kernel.ScheduleAfter(Duration::Seconds(1),
                             [reply] { reply(7); });
      },
      [&](Result<int>) { ++calls; });
  kernel.Run();
  EXPECT_EQ(calls, 1);
}

TEST(KernelTest, AsyncCallReleasesCallbackWhenDone) {
  SimKernel kernel(QuietNet());
  const Loid a(LoidSpace::kObject, 0, 1);
  const Loid b(LoidSpace::kObject, 0, 2);
  int calls = 0;

  // Reply path: `done` and its captures die when the reply lands, not
  // when the cancelled 30 s timeout would have fired.
  auto capture = std::make_shared<int>(0);
  std::weak_ptr<int> watch = capture;
  kernel.AsyncCall<int>(
      a, b, 64, 64, Duration::Seconds(30),
      [](Callback<int> reply) { reply(1); },
      [&calls, capture](Result<int> r) {
        EXPECT_TRUE(r.ok());
        ++calls;
      });
  capture.reset();
  kernel.Run();
  ASSERT_EQ(calls, 1);
  kernel.RunFor(Duration::Seconds(1));
  EXPECT_LT(kernel.Now(), SimTime::Zero() + Duration::Seconds(30));
  EXPECT_TRUE(watch.expired());

  // Timeout path: a callee that keeps the reply callback does not keep
  // `done` alive once the timeout has fired, and its late reply is
  // suppressed.
  capture = std::make_shared<int>(0);
  watch = capture;
  Callback<int> kept;
  kernel.AsyncCall<int>(
      a, b, 64, 64, Duration::Seconds(30),
      [&kept](Callback<int> reply) { kept = std::move(reply); },
      [&calls, capture](Result<int> r) {
        EXPECT_EQ(r.code(), ErrorCode::kTimeout);
        ++calls;
      });
  capture.reset();
  kernel.RunFor(Duration::Seconds(30));
  EXPECT_EQ(calls, 2);
  EXPECT_TRUE(watch.expired());
  kept(7);
  kernel.Run();
  EXPECT_EQ(calls, 2);
}

TEST(KernelTest, StatsResetWorks) {
  SimKernel kernel(QuietNet());
  kernel.ScheduleAfter(Duration::Millis(1), [] {});
  kernel.Run();
  EXPECT_GT(Count(kernel, "events_run", "kernel"), 0u);
  kernel.metrics().Reset();
  EXPECT_EQ(Count(kernel, "events_run", "kernel"), 0u);
}

}  // namespace
}  // namespace legion
