#include "objects/legion_object.h"

#include <gtest/gtest.h>

namespace legion {
namespace {

Loid ObjLoid() { return Loid(LoidSpace::kObject, 0, 50); }
Loid ClassLoid() { return Loid(LoidSpace::kClass, 0, 9); }
Loid HostLoid() { return Loid(LoidSpace::kHost, 0, 1); }
Loid VaultLoid() { return Loid(LoidSpace::kVault, 0, 2); }

// A subclass with custom body state, to exercise the OPR extension
// points.
class CounterObject : public LegionObject {
 public:
  CounterObject(SimKernel* kernel, Loid loid)
      : LegionObject(kernel, loid, ClassLoid()) {}

  int counter = 0;
  int activations = 0;
  int deactivations = 0;

 protected:
  void OnActivate() override { ++activations; }
  void OnDeactivate() override { ++deactivations; }
  void SerializeBody(ByteWriter& writer) const override {
    writer.WriteI64(counter);
  }
  Status DeserializeBody(ByteReader& reader) override {
    auto v = reader.ReadI64();
    if (!v) return v.status();
    counter = static_cast<int>(*v);
    return Status::Ok();
  }
};

TEST(LegionObjectTest, StartsInactive) {
  SimKernel kernel;
  LegionObject object(&kernel, ObjLoid(), ClassLoid());
  EXPECT_EQ(object.state(), ObjectState::kInactive);
  EXPECT_FALSE(object.active());
  EXPECT_EQ(object.class_loid(), ClassLoid());
}

TEST(LegionObjectTest, ActivateDeactivateLifecycle) {
  SimKernel kernel;
  CounterObject object(&kernel, ObjLoid());
  EXPECT_TRUE(object.Activate(HostLoid(), VaultLoid()).ok());
  EXPECT_TRUE(object.active());
  EXPECT_EQ(object.host(), HostLoid());
  EXPECT_EQ(object.vault(), VaultLoid());
  EXPECT_EQ(object.activations, 1);
  // Double activation fails.
  EXPECT_FALSE(object.Activate(HostLoid(), VaultLoid()).ok());
  EXPECT_TRUE(object.Deactivate().ok());
  EXPECT_EQ(object.state(), ObjectState::kInactive);
  EXPECT_EQ(object.deactivations, 1);
  // Double deactivation fails.
  EXPECT_FALSE(object.Deactivate().ok());
}

TEST(LegionObjectTest, DeadObjectsStayDead) {
  SimKernel kernel;
  CounterObject object(&kernel, ObjLoid());
  ASSERT_TRUE(object.Activate(HostLoid(), VaultLoid()).ok());
  object.MarkDead();
  EXPECT_EQ(object.state(), ObjectState::kDead);
  EXPECT_EQ(object.deactivations, 1);  // OnDeactivate ran
  EXPECT_FALSE(object.Activate(HostLoid(), VaultLoid()).ok());
}

TEST(LegionObjectTest, OprRoundTripsAttributesAndBody) {
  SimKernel kernel;
  CounterObject original(&kernel, ObjLoid());
  original.mutable_attributes().Set("colour", "blue");
  original.counter = 123;
  Opr opr = original.SaveState();
  EXPECT_EQ(opr.object, ObjLoid());
  EXPECT_EQ(opr.class_loid, ClassLoid());

  CounterObject restored(&kernel, ObjLoid());
  ASSERT_TRUE(restored.RestoreState(opr).ok());
  EXPECT_EQ(restored.counter, 123);
  EXPECT_EQ(restored.attributes().Get("colour")->as_string(), "blue");
}

TEST(LegionObjectTest, RestoreRejectsWrongIdentity) {
  SimKernel kernel;
  CounterObject a(&kernel, ObjLoid());
  Opr opr = a.SaveState();
  CounterObject b(&kernel, Loid(LoidSpace::kObject, 0, 51));
  EXPECT_FALSE(b.RestoreState(opr).ok());
}

TEST(LegionObjectTest, RestoreRejectsWhileActive) {
  SimKernel kernel;
  CounterObject object(&kernel, ObjLoid());
  Opr opr = object.SaveState();
  ASSERT_TRUE(object.Activate(HostLoid(), VaultLoid()).ok());
  EXPECT_FALSE(object.RestoreState(opr).ok());
}

TEST(LegionObjectTest, MigrationShapedLifecycle) {
  // Shutdown -> move passive state -> reactivate elsewhere (paper 2.1).
  SimKernel kernel;
  CounterObject object(&kernel, ObjLoid());
  ASSERT_TRUE(object.Activate(HostLoid(), VaultLoid()).ok());
  object.counter = 55;
  ASSERT_TRUE(object.Deactivate().ok());
  const Opr opr = object.SaveState();

  // Simulate arrival at a new (host, vault).
  ASSERT_TRUE(object.RestoreState(opr).ok());
  const Loid new_host(LoidSpace::kHost, 1, 9);
  const Loid new_vault(LoidSpace::kVault, 1, 8);
  ASSERT_TRUE(object.Activate(new_host, new_vault).ok());
  EXPECT_EQ(object.counter, 55);
  EXPECT_EQ(object.host(), new_host);
  EXPECT_EQ(object.vault(), new_vault);
}

TEST(LegionObjectTest, EvaluateTriggersUsesOwnAttributes) {
  SimKernel kernel;
  CounterObject object(&kernel, ObjLoid());
  TriggerSpec spec;
  spec.event_name = "warm";
  spec.guard = [](const AttributeDatabase& db) {
    const AttrValue* t = db.Get("temp");
    return t != nullptr && t->as_int() > 50;
  };
  object.events().RegisterTrigger(std::move(spec));
  int fired = 0;
  object.events().RegisterOutcall("warm", [&](const RgeEvent&) { ++fired; });
  object.mutable_attributes().Set("temp", 40);
  EXPECT_EQ(object.EvaluateTriggers(), 0u);
  object.mutable_attributes().Set("temp", 60);
  EXPECT_EQ(object.EvaluateTriggers(), 1u);
  EXPECT_EQ(fired, 1);
}

TEST(OprTest, SizeGrowsWithContent) {
  SimKernel kernel;
  CounterObject object(&kernel, ObjLoid());
  const std::size_t empty_size = object.SaveState().SizeBytes();
  for (int i = 0; i < 50; ++i) {
    object.mutable_attributes().Set("attr" + std::to_string(i),
                                    std::string(100, 'x'));
  }
  EXPECT_GT(object.SaveState().SizeBytes(), empty_size + 4000);
}

}  // namespace
}  // namespace legion
