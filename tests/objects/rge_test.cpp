#include "objects/rge.h"

#include <gtest/gtest.h>

namespace legion {
namespace {

Loid Owner() { return Loid(LoidSpace::kHost, 0, 1); }

TriggerSpec LoadTrigger(double threshold) {
  TriggerSpec spec;
  spec.event_name = "high_load";
  spec.guard = [threshold](const AttributeDatabase& db) {
    const AttrValue* load = db.Get("load");
    return load != nullptr && load->as_double() > threshold;
  };
  return spec;
}

TEST(RgeTest, TriggerFiresWhenGuardTrue) {
  EventManager manager(Owner());
  manager.RegisterTrigger(LoadTrigger(0.5));
  int fired = 0;
  manager.RegisterOutcall("high_load",
                          [&](const RgeEvent&) { ++fired; });
  AttributeDatabase db;
  db.Set("load", 0.9);
  EXPECT_EQ(manager.Evaluate(db, SimTime(1)), 1u);
  EXPECT_EQ(fired, 1);
}

TEST(RgeTest, TriggerSilentWhenGuardFalse) {
  EventManager manager(Owner());
  manager.RegisterTrigger(LoadTrigger(0.5));
  int fired = 0;
  manager.RegisterOutcall("high_load", [&](const RgeEvent&) { ++fired; });
  AttributeDatabase db;
  db.Set("load", 0.1);
  EXPECT_EQ(manager.Evaluate(db, SimTime(1)), 0u);
  EXPECT_EQ(fired, 0);
}

TEST(RgeTest, EdgeSensitiveFiresOncePerTransition) {
  EventManager manager(Owner());
  manager.RegisterTrigger(LoadTrigger(0.5));
  int fired = 0;
  manager.RegisterOutcall("high_load", [&](const RgeEvent&) { ++fired; });
  AttributeDatabase db;
  db.Set("load", 0.9);
  manager.Evaluate(db, SimTime(1));
  manager.Evaluate(db, SimTime(2));  // still high: no re-fire
  manager.Evaluate(db, SimTime(3));
  EXPECT_EQ(fired, 1);
  db.Set("load", 0.1);
  manager.Evaluate(db, SimTime(4));  // re-arm
  db.Set("load", 0.95);
  manager.Evaluate(db, SimTime(5));  // fires again
  EXPECT_EQ(fired, 2);
}

TEST(RgeTest, EventCarriesOwnerTimeAndPayload) {
  EventManager manager(Owner());
  manager.RegisterTrigger(LoadTrigger(0.5));
  RgeEvent received;
  manager.RegisterOutcall("high_load",
                          [&](const RgeEvent& e) { received = e; });
  AttributeDatabase db;
  db.Set("load", 0.8);
  db.Set("name", "hostX");
  manager.Evaluate(db, SimTime(77));
  EXPECT_EQ(received.name, "high_load");
  EXPECT_EQ(received.source, Owner());
  EXPECT_EQ(received.when, SimTime(77));
  EXPECT_EQ(received.payload.Get("name")->as_string(), "hostX");
}

TEST(RgeTest, EmptyOutcallNameSubscribesToAll) {
  EventManager manager(Owner());
  manager.RegisterTrigger(LoadTrigger(0.5));
  TriggerSpec other;
  other.event_name = "other_event";
  other.guard = [](const AttributeDatabase&) { return true; };
  manager.RegisterTrigger(std::move(other));
  int fired = 0;
  manager.RegisterOutcall("", [&](const RgeEvent&) { ++fired; });
  AttributeDatabase db;
  db.Set("load", 0.9);
  manager.Evaluate(db, SimTime(1));
  EXPECT_EQ(fired, 2);
}

TEST(RgeTest, OutcallMayRegisterAnotherDuringDispatch) {
  // Dispatch walks a copy of the subscriptions: registering an outcall
  // from inside one grows the list under the walk, yet the outcalls
  // after it still hear the current event, and the new one hears only
  // the next.
  EventManager manager(Owner());
  manager.RegisterTrigger(LoadTrigger(0.5));
  int first = 0;
  int later = 0;
  int added = 0;
  manager.RegisterOutcall("high_load", [&](const RgeEvent&) {
    if (++first == 1) {
      manager.RegisterOutcall("high_load", [&](const RgeEvent&) { ++added; });
    }
  });
  manager.RegisterOutcall("high_load", [&](const RgeEvent&) { ++later; });
  AttributeDatabase db;
  db.Set("load", 0.9);
  manager.Evaluate(db, SimTime(1));
  EXPECT_EQ(first, 1);
  EXPECT_EQ(later, 1);
  EXPECT_EQ(added, 0);
  db.Set("load", 0.1);
  manager.Evaluate(db, SimTime(2));  // re-arm
  db.Set("load", 0.9);
  manager.Evaluate(db, SimTime(3));
  EXPECT_EQ(first, 2);
  EXPECT_EQ(later, 2);
  EXPECT_EQ(added, 1);
}

TEST(RgeTest, MultipleTriggersCountRaised) {
  EventManager manager(Owner());
  for (double t : {0.1, 0.2, 0.3}) manager.RegisterTrigger(LoadTrigger(t));
  AttributeDatabase db;
  db.Set("load", 0.25);
  EXPECT_EQ(manager.Evaluate(db, SimTime(1)), 2u);  // 0.1 and 0.2 fire
  EXPECT_EQ(manager.events_raised(), 2u);
}

}  // namespace
}  // namespace legion
