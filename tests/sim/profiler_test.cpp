#include "sim/profiler.h"

#include <gtest/gtest.h>

#include <string>

#include "sim/kernel.h"

namespace legion {
namespace {

TEST(KernelProfiler, DisabledByDefaultAndTogglable) {
  // Call sites guard with enabled() (Record* itself is unguarded so the
  // hot path pays exactly one branch), so the flag is the contract.
  KernelProfiler profiler;
  EXPECT_FALSE(profiler.enabled());
  profiler.Enable();
  EXPECT_TRUE(profiler.enabled());
  profiler.Disable();
  EXPECT_FALSE(profiler.enabled());
  EXPECT_TRUE(profiler.entries().empty());
}

TEST(KernelProfiler, AccumulatesByLabel) {
  KernelProfiler profiler;
  profiler.Enable();
  profiler.RecordHandler("net/msg", Duration::Millis(5), 3);
  // The same label at another address (a literal in another translation
  // unit) accumulates into the same entry.
  const std::string copy = "net/msg";
  profiler.RecordHandler(copy.c_str(), Duration::Millis(7), 2);
  profiler.RecordHandler("enactor/backoff", Duration::Seconds(1), 0);
  const ProfileEntry* msg = profiler.Find("net/msg");
  ASSERT_NE(msg, nullptr);
  EXPECT_EQ(msg->count, 2u);
  EXPECT_EQ(msg->queue_us, 12000);
  EXPECT_EQ(msg->wall_us, 5);
  EXPECT_EQ(profiler.entries().size(), 2u);
  const ProfileEntry* backoff = profiler.Find("enactor/backoff");
  ASSERT_NE(backoff, nullptr);
  EXPECT_EQ(backoff->queue_us, 1000000);
  EXPECT_EQ(profiler.Find("missing"), nullptr);
}

TEST(KernelProfiler, RpcAccountsSimOccupancy) {
  KernelProfiler profiler;
  profiler.Enable();
  profiler.RecordRpc("make_reservation", Duration::Millis(40));
  const ProfileEntry* rpc = profiler.Find("rpc/make_reservation");
  ASSERT_NE(rpc, nullptr);
  EXPECT_EQ(rpc->count, 1u);
  EXPECT_EQ(rpc->sim_busy_us, 40000);
}

TEST(KernelProfiler, HighWaterMarks) {
  KernelProfiler profiler;
  profiler.RecordQueueDepth(3);
  profiler.RecordQueueDepth(10);
  profiler.RecordQueueDepth(5);
  EXPECT_EQ(profiler.queue_depth_high_water(), 10u);
  profiler.RpcStarted();
  profiler.RpcStarted();
  profiler.RpcFinished();
  profiler.RpcStarted();
  EXPECT_EQ(profiler.rpc_inflight_high_water(), 2u);
}

TEST(KernelProfiler, JsonIsDeterministicAndReset) {
  KernelProfiler profiler;
  profiler.Enable();
  profiler.RecordHandler("z/last", Duration::Zero(), 0);
  profiler.RecordHandler("a/first", Duration::Zero(), 0);
  profiler.RecordQueueDepth(4);
  const std::string json = profiler.ToJson();
  EXPECT_EQ(json, profiler.ToJson());
  EXPECT_LT(json.find("a/first"), json.find("z/last"));
  EXPECT_NE(json.find("queue_depth_high_water"), std::string::npos);
  profiler.Reset();
  EXPECT_TRUE(profiler.entries().empty());
  EXPECT_EQ(profiler.queue_depth_high_water(), 0u);
  // Labels seen before the reset start from fresh entries.
  profiler.RecordHandler("a/first", Duration::Zero(), 0);
  profiler.RecordRpc("make_reservation", Duration::Millis(1));
  profiler.RecordRpc("make_reservation", Duration::Millis(2));
  ASSERT_NE(profiler.Find("a/first"), nullptr);
  EXPECT_EQ(profiler.Find("a/first")->count, 1u);
  ASSERT_NE(profiler.Find("rpc/make_reservation"), nullptr);
  EXPECT_EQ(profiler.Find("rpc/make_reservation")->sim_busy_us, 3000);
  EXPECT_EQ(profiler.entries().size(), 2u);
}

// The profiler observes the kernel without perturbing it: same workload,
// profiler on vs off, identical events/messages/metrics fingerprint.
std::uint64_t RunPingPong(SimKernel& kernel) {
  const Loid a = kernel.minter().Mint(LoidSpace::kService, 0);
  const Loid b = kernel.minter().Mint(LoidSpace::kService, 1);
  kernel.network().RegisterEndpoint(a, 0);
  kernel.network().RegisterEndpoint(b, 0);
  for (int i = 0; i < 20; ++i) {
    kernel.ScheduleAfter(Duration::Millis(10 * i), [&kernel, a, b] {
      kernel.Send(a, b, 64, [] {});
    });
  }
  return kernel.RunFor(Duration::Seconds(5));
}

TEST(KernelProfiler, ObserverDoesNotPerturbKernel) {
  SimKernel plain;
  const std::uint64_t plain_events = RunPingPong(plain);
  const std::string plain_metrics = plain.metrics().SnapshotJson();

  SimKernel profiled;
  profiled.profiler().Enable();
  const std::uint64_t profiled_events = RunPingPong(profiled);

  EXPECT_EQ(profiled_events, plain_events);
  EXPECT_EQ(profiled.metrics().SnapshotJson(), plain_metrics);
  // The kernel labeled its events: messages under net/msg, the rest
  // under the unlabeled bucket.
  const ProfileEntry* msg = profiled.profiler().Find("net/msg");
  ASSERT_NE(msg, nullptr);
  EXPECT_EQ(msg->count, 20u);
  EXPECT_NE(profiled.profiler().Find("kernel/event"), nullptr);
  EXPECT_GT(profiled.profiler().queue_depth_high_water(), 0u);
  // Pinned wall clock: profiling must not leak real time into the dump.
  EXPECT_EQ(msg->wall_us, 0);
}

TEST(WallClock, PinnedByDefaultAndOptInRealTime) {
  obs::WallClock clock;
  EXPECT_FALSE(clock.real_time());
  const std::int64_t a = clock.Micros();
  const std::int64_t b = clock.Micros();
  EXPECT_EQ(a, b);  // pinned: no wall time observable
  clock.UseRealTime();
  EXPECT_TRUE(clock.real_time());
  clock.Pin(42);
  EXPECT_FALSE(clock.real_time());
  EXPECT_EQ(clock.Micros(), 42);
  clock.Pin(0);
  EXPECT_EQ(clock.Micros(), a);
}

}  // namespace
}  // namespace legion
