// The Collection (paper figure 4): join/leave/update/query, the push and
// pull models, authentication, staleness, and the copy-on-write records.
#include "core/collection.h"

#include <gtest/gtest.h>

#include "test_world.h"

namespace legion {
namespace {

using testing::Await;
using testing::Count;
using testing::TestWorld;

class CollectionTest : public ::testing::Test {
 protected:
  CollectionTest() : world_() {}

  AttributeDatabase HostRecord(const std::string& arch, double load) {
    AttributeDatabase db;
    db.Set("host_arch", arch);
    db.Set("host_load", load);
    return db;
  }

  Loid Member(std::uint64_t serial) {
    return Loid(LoidSpace::kHost, 0, 1000 + serial);
  }

  TestWorld world_;
};

TEST_F(CollectionTest, JoinWithAttributesCreatesRecord) {
  Await<bool> joined;
  world_.collection->JoinCollection(Member(1), HostRecord("x86", 0.5),
                                    joined.Sink());
  EXPECT_TRUE(*joined.Get());
  EXPECT_EQ(world_.collection->record_count(), 1u);
  auto result = world_.collection->QueryLocal("$host_arch == \"x86\"");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ((*result)[0].member, Member(1));
}

TEST_F(CollectionTest, JoinWithoutAttributesCreatesEmptyRecord) {
  // The figure-4 overload without the initial installment.
  Await<bool> joined;
  world_.collection->JoinCollection(Member(1), joined.Sink());
  EXPECT_TRUE(*joined.Get());
  EXPECT_EQ(world_.collection->record_count(), 1u);
  // The record exists but matches nothing substantive yet.
  auto result = world_.collection->QueryLocal("defined($host_arch)");
  EXPECT_TRUE(result->empty());
}

TEST_F(CollectionTest, LeaveRemovesRecord) {
  Await<bool> joined;
  world_.collection->JoinCollection(Member(1), HostRecord("x86", 0.5),
                                    joined.Sink());
  Await<bool> left;
  world_.collection->LeaveCollection(Member(1), left.Sink());
  EXPECT_TRUE(*left.Get());
  EXPECT_EQ(world_.collection->record_count(), 0u);
  Await<bool> again;
  world_.collection->LeaveCollection(Member(1), again.Sink());
  EXPECT_FALSE(*again.Get());
}

TEST_F(CollectionTest, UpdateReplacesAttributes) {
  Await<bool> joined;
  world_.collection->JoinCollection(Member(1), HostRecord("x86", 0.9),
                                    joined.Sink());
  Await<bool> updated;
  world_.collection->UpdateCollectionEntry(Member(1), HostRecord("x86", 0.1),
                                           updated.Sink());
  EXPECT_TRUE(*updated.Get());
  auto result = world_.collection->QueryLocal("$host_load < 0.5");
  EXPECT_EQ(result->size(), 1u);
}

TEST_F(CollectionTest, AuthRejectsUntrustedThirdParty) {
  // "The security facilities of Legion authenticate the caller to be
  // sure that it is allowed to update the data in the Collection."
  Await<bool> joined;
  world_.collection->JoinCollection(Member(1), HostRecord("x86", 0.5),
                                    joined.Sink());
  const Loid stranger(LoidSpace::kService, 3, 99);
  Await<bool> rejected;
  world_.collection->UpdateEntryAs(stranger, Member(1),
                                   HostRecord("x86", 0.0), rejected.Sink());
  EXPECT_EQ(rejected.Get().code(), ErrorCode::kRefused);
  EXPECT_EQ(Count(world_.kernel, "updates_rejected", "collection"), 1u);
  // Trusting the agent fixes it.
  world_.collection->AddTrustedUpdater(stranger);
  Await<bool> accepted;
  world_.collection->UpdateEntryAs(stranger, Member(1),
                                   HostRecord("x86", 0.0), accepted.Sink());
  EXPECT_TRUE(*accepted.Get());
}

TEST_F(CollectionTest, QueryCollectionReturnsMatches) {
  for (int i = 0; i < 10; ++i) {
    Await<bool> joined;
    world_.collection->JoinCollection(
        Member(i), HostRecord(i % 2 == 0 ? "x86" : "sparc", 0.1 * i),
        joined.Sink());
  }
  Await<CollectionData> result;
  world_.collection->QueryCollection(
      "$host_arch == \"sparc\" and $host_load < 0.5", result.Sink());
  ASSERT_TRUE(result.Get().ok());
  EXPECT_EQ(result.Get()->size(), 2u);  // i = 1, 3
}

TEST_F(CollectionTest, QueryBadSyntaxFails) {
  Await<CollectionData> result;
  world_.collection->QueryCollection("$a ==", result.Sink());
  EXPECT_FALSE(result.Get().ok());
}

TEST_F(CollectionTest, QueryResultsAreDeterministicallyOrdered) {
  for (int i = 9; i >= 0; --i) {
    Await<bool> joined;
    world_.collection->JoinCollection(Member(i), HostRecord("x86", 0.1),
                                      joined.Sink());
  }
  auto result = world_.collection->QueryLocal("true");
  ASSERT_TRUE(result.ok());
  for (std::size_t i = 1; i < result->size(); ++i) {
    EXPECT_LT((*result)[i - 1].member, (*result)[i].member);
  }
}

TEST_F(CollectionTest, RecordsCarryMemberAndFreshness) {
  world_.kernel.RunFor(Duration::Seconds(5));
  Await<bool> joined;
  world_.collection->JoinCollection(Member(1), HostRecord("x86", 0.5),
                                    joined.Sink());
  auto result = world_.collection->QueryLocal("true");
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ((*result)[0].updated_at, world_.kernel.Now());
  EXPECT_EQ((*result)[0].attributes.Get("member")->as_string(),
            Member(1).ToString());
  world_.kernel.RunFor(Duration::Seconds(10));
  EXPECT_EQ(world_.collection->MeanRecordAge(), Duration::Seconds(10));
}

TEST_F(CollectionTest, FunctionInjectionVisibleInQueries) {
  world_.collection->functions().Register(
      "always_42", [](const AttributeDatabase&,
                      const std::vector<AttrValue>&) -> AttrValue {
        return AttrValue(42);
      });
  Await<bool> joined;
  world_.collection->JoinCollection(Member(1), HostRecord("x86", 0.5),
                                    joined.Sink());
  auto result = world_.collection->QueryLocal("always_42() == 42");
  EXPECT_EQ(result->size(), 1u);
}

TEST_F(CollectionTest, HeldQueryResultKeepsItsValuesAfterAnUpdate) {
  Await<bool> joined;
  world_.collection->JoinCollection(Member(1), HostRecord("x86", 0.5),
                                    joined.Sink());
  auto held = world_.collection->QueryLocal("true");
  ASSERT_TRUE(held.ok());
  ASSERT_EQ(held->size(), 1u);
  Await<bool> updated;
  world_.collection->UpdateCollectionEntry(Member(1), HostRecord("sparc", 0.9),
                                           updated.Sink());
  ASSERT_TRUE(*updated.Get());
  const AttributeDatabase& before = (*held)[0].attributes;
  EXPECT_EQ(before.GetOr("host_arch", AttrValue("")).as_string(), "x86");
  EXPECT_EQ(before.GetOr("host_load", AttrValue(-1.0)).as_double(), 0.5);
  auto now = world_.collection->QueryLocal("true");
  ASSERT_TRUE(now.ok());
  ASSERT_EQ(now->size(), 1u);
  EXPECT_EQ((*now)[0].attributes.GetOr("host_arch", AttrValue("")).as_string(),
            "sparc");
}

TEST_F(CollectionTest, CallerWritesAfterAPushDoNotReachTheRecord) {
  AttributeDatabase pushed = HostRecord("x86", 0.5);
  Await<bool> joined;
  world_.collection->JoinCollection(Member(1), pushed, joined.Sink());
  ASSERT_TRUE(*joined.Get());
  pushed.Set("host_arch", "sparc");
  pushed.Erase("host_load");
  auto result = world_.collection->QueryLocal("$host_arch == \"x86\"");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ(
      (*result)[0].attributes.GetOr("host_load", AttrValue(-1.0)).as_double(),
      0.5);

  Await<bool> updated;
  world_.collection->UpdateCollectionEntry(Member(1), pushed, updated.Sink());
  ASSERT_TRUE(*updated.Get());
  pushed.Set("host_arch", "mips");
  pushed.Clear();
  result = world_.collection->QueryLocal("$host_arch == \"sparc\"");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_FALSE((*result)[0].attributes.Has("host_load"));
  EXPECT_TRUE(world_.collection->QueryLocal("$host_arch == \"mips\"")
                  ->empty());
}

TEST_F(CollectionTest, StatsCount) {
  Await<bool> joined;
  world_.collection->JoinCollection(Member(1), HostRecord("x86", 0.5),
                                    joined.Sink());
  world_.collection->QueryLocal("true");
  world_.collection->QueryLocal("false");
  EXPECT_EQ(Count(world_.kernel, "queries_served", "collection"), 2u);
  EXPECT_EQ(Count(world_.kernel, "updates_applied", "collection"), 1u);
}

}  // namespace
}  // namespace legion
