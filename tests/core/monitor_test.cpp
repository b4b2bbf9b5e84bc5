// The execution Monitor and RGE outcalls (paper section 3.5, protocol
// steps 12-13).
#include "core/monitor.h"

#include <gtest/gtest.h>

#include "test_world.h"

namespace legion {
namespace {

using testing::Await;
using testing::Count;
using testing::TestWorld;

class MonitorTest : public ::testing::Test {
 protected:
  MonitorTest() : world_() {
    monitor_ = world_.kernel.AddActor<MonitorObject>(
        world_.kernel.minter().Mint(LoidSpace::kService, 0));
  }

  TestWorld world_;
  MonitorObject* monitor_;
};

TEST_F(MonitorTest, LoadThresholdTriggerFiresOutcall) {
  monitor_->WatchLoadThreshold(world_.hosts[0], 2.0);
  int reschedules = 0;
  RgeEvent last;
  monitor_->SetRescheduleHandler([&](const RgeEvent& event) {
    ++reschedules;
    last = event;
  });
  // Below the threshold: nothing.
  world_.hosts[0]->ReassessState();
  world_.Run();
  EXPECT_EQ(Count(world_.kernel, "monitor_events", "monitor"), 0u);
  // Load spike above the threshold: the outcall crosses the network and
  // the monitor notifies its handler.
  world_.hosts[0]->SpikeLoad(3.0);
  world_.Run();
  EXPECT_EQ(Count(world_.kernel, "monitor_events", "monitor"), 1u);
  EXPECT_EQ(reschedules, 1);
  EXPECT_EQ(last.source, world_.hosts[0]->loid());
  EXPECT_GT(last.payload.Get("host_load")->as_double(), 2.0);
}

TEST_F(MonitorTest, EdgeTriggerDoesNotStorm) {
  monitor_->WatchLoadThreshold(world_.hosts[0], 2.0);
  world_.hosts[0]->SpikeLoad(3.0);
  world_.Run();
  // Re-evaluating while still loaded does not re-fire.
  for (int i = 0; i < 5; ++i) {
    world_.hosts[0]->mutable_attributes().Set("host_load", 3.0);
    world_.hosts[0]->EvaluateTriggers();
  }
  world_.Run();
  EXPECT_EQ(Count(world_.kernel, "monitor_events", "monitor"), 1u);
}

TEST_F(MonitorTest, RearmsAfterLoadDrops) {
  monitor_->WatchLoadThreshold(world_.hosts[0], 2.0);
  world_.hosts[0]->SpikeLoad(3.0);
  world_.Run();
  world_.hosts[0]->SpikeLoad(0.1);  // back below
  world_.Run();
  world_.hosts[0]->SpikeLoad(3.5);  // spike again
  world_.Run();
  EXPECT_EQ(Count(world_.kernel, "monitor_events", "monitor"), 2u);
}

TEST_F(MonitorTest, WatchesSeveralHostsIndependently) {
  monitor_->WatchLoadThreshold(world_.hosts[0], 2.0);
  monitor_->WatchLoadThreshold(world_.hosts[1], 2.0);
  std::vector<Loid> sources;
  monitor_->SetRescheduleHandler(
      [&](const RgeEvent& event) { sources.push_back(event.source); });
  world_.hosts[1]->SpikeLoad(4.0);
  world_.Run();
  world_.hosts[0]->SpikeLoad(4.0);
  world_.Run();
  ASSERT_EQ(sources.size(), 2u);
  EXPECT_EQ(sources[0], world_.hosts[1]->loid());
  EXPECT_EQ(sources[1], world_.hosts[0]->loid());
}

TEST_F(MonitorTest, CustomEventWatch) {
  // Register a bespoke trigger on the host and watch its event by name.
  TriggerSpec spec;
  spec.event_name = "memory_pressure";
  spec.guard = [](const AttributeDatabase& attrs) {
    const AttrValue* available = attrs.Get("host_available_memory_mb");
    return available != nullptr && available->as_int() < 100;
  };
  world_.hosts[0]->events().RegisterTrigger(std::move(spec));
  monitor_->WatchHost(world_.hosts[0], "memory_pressure");
  // Eat nearly all memory.
  auto* klass = world_.MakeClass("hog", /*memory_mb=*/1000);
  PlacementSuggestion suggestion;
  suggestion.host = world_.hosts[0]->loid();
  suggestion.vault = world_.vaults[0]->loid();
  Await<Loid> placed;
  klass->CreateInstance(suggestion, placed.Sink());
  world_.Run();
  ASSERT_TRUE(placed.Get().ok());
  world_.hosts[0]->ReassessState();
  world_.Run();
  EXPECT_EQ(Count(world_.kernel, "monitor_events", "monitor"), 1u);
}

TEST_F(MonitorTest, SustainedFlappingSpikeDispatchesOnce) {
  // Regression: an edge-sensitive load trigger on a flapping host re-fires
  // on every threshold crossing.  Before the debounce each firing invoked
  // the reschedule handler, so one sustained spike requested N migrations
  // while the first was still in flight.
  monitor_->WatchLoadThreshold(world_.hosts[0], 2.0);
  int reschedules = 0;
  monitor_->SetRescheduleHandler([&](const RgeEvent&) { ++reschedules; });
  // Five spike/dip cycles a second apart: the guard crosses false->true
  // five times, so five outcalls arrive within the debounce window.
  // (Short drains, not world_.Run() -- that advances two sim minutes and
  // would step right over the 30s debounce window.)
  for (int i = 0; i < 5; ++i) {
    world_.hosts[0]->SpikeLoad(3.0 + i);
    world_.kernel.RunFor(Duration::Millis(500));
    world_.hosts[0]->SpikeLoad(0.1);
    world_.kernel.RunFor(Duration::Millis(500));
  }
  EXPECT_EQ(Count(world_.kernel, "monitor_events", "monitor"), 5u);
  EXPECT_EQ(reschedules, 1);
  EXPECT_EQ(Count(world_.kernel, "monitor_events_suppressed", "monitor"), 4u);
  // Once the interval elapses the next crossing dispatches again.
  world_.Run();  // two sim minutes >> 30s debounce
  world_.hosts[0]->SpikeLoad(4.0);
  world_.kernel.RunFor(Duration::Millis(500));
  EXPECT_EQ(reschedules, 2);
}

TEST_F(MonitorTest, NoHandlerIsHarmless) {
  monitor_->WatchLoadThreshold(world_.hosts[0], 2.0);
  world_.hosts[0]->SpikeLoad(3.0);
  world_.Run();
  // No crash without a handler.
  EXPECT_EQ(Count(world_.kernel, "monitor_events", "monitor"), 1u);
}

}  // namespace
}  // namespace legion
