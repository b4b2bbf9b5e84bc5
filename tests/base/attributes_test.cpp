#include "base/attributes.h"

#include <gtest/gtest.h>

namespace legion {
namespace {

TEST(AttrValueTest, TypePredicates) {
  EXPECT_TRUE(AttrValue().is_null());
  EXPECT_TRUE(AttrValue(true).is_bool());
  EXPECT_TRUE(AttrValue(std::int64_t{5}).is_int());
  EXPECT_TRUE(AttrValue(5).is_int());
  EXPECT_TRUE(AttrValue(2.5).is_double());
  EXPECT_TRUE(AttrValue("hi").is_string());
  EXPECT_TRUE(AttrValue(AttrList{AttrValue(1)}).is_list());
  EXPECT_TRUE(AttrValue(5).is_numeric());
  EXPECT_TRUE(AttrValue(5.0).is_numeric());
  EXPECT_FALSE(AttrValue("5").is_numeric());
}

TEST(AttrValueTest, NumericEqualityCrossesIntDouble) {
  EXPECT_EQ(AttrValue(5), AttrValue(5.0));
  EXPECT_EQ(AttrValue(5.0), AttrValue(5));
  EXPECT_NE(AttrValue(5), AttrValue(5.5));
  EXPECT_NE(AttrValue(5), AttrValue("5"));
}

TEST(AttrValueTest, Truthiness) {
  EXPECT_FALSE(AttrValue().Truthy());
  EXPECT_FALSE(AttrValue(false).Truthy());
  EXPECT_TRUE(AttrValue(true).Truthy());
  EXPECT_FALSE(AttrValue(0).Truthy());
  EXPECT_TRUE(AttrValue(-1).Truthy());
  EXPECT_FALSE(AttrValue(0.0).Truthy());
  EXPECT_TRUE(AttrValue(0.1).Truthy());
  EXPECT_FALSE(AttrValue("").Truthy());
  EXPECT_TRUE(AttrValue("x").Truthy());
  EXPECT_FALSE(AttrValue(AttrList{}).Truthy());
  EXPECT_TRUE(AttrValue(AttrList{AttrValue(0)}).Truthy());
}

TEST(AttrValueTest, CompareNumbers) {
  EXPECT_EQ(CompareAttrValues(AttrValue(1), AttrValue(2)), -1);
  EXPECT_EQ(CompareAttrValues(AttrValue(2), AttrValue(1)), 1);
  EXPECT_EQ(CompareAttrValues(AttrValue(2), AttrValue(2)), 0);
  EXPECT_EQ(CompareAttrValues(AttrValue(1.5), AttrValue(2)), -1);
  EXPECT_EQ(CompareAttrValues(AttrValue(2), AttrValue(1.5)), 1);
}

TEST(AttrValueTest, CompareStrings) {
  EXPECT_EQ(CompareAttrValues(AttrValue("a"), AttrValue("b")), -1);
  EXPECT_EQ(CompareAttrValues(AttrValue("b"), AttrValue("a")), 1);
  EXPECT_EQ(CompareAttrValues(AttrValue("a"), AttrValue("a")), 0);
}

TEST(AttrValueTest, CompareIncomparableIsNullopt) {
  EXPECT_FALSE(CompareAttrValues(AttrValue("a"), AttrValue(1)).has_value());
  EXPECT_FALSE(CompareAttrValues(AttrValue(), AttrValue(1)).has_value());
  EXPECT_FALSE(
      CompareAttrValues(AttrValue(AttrList{}), AttrValue(1)).has_value());
}

TEST(AttrValueTest, ToStringRendering) {
  EXPECT_EQ(AttrValue().ToString(), "null");
  EXPECT_EQ(AttrValue(true).ToString(), "true");
  EXPECT_EQ(AttrValue(42).ToString(), "42");
  EXPECT_EQ(AttrValue("hi").ToString(), "\"hi\"");
  EXPECT_EQ(AttrValue(AttrList{AttrValue(1), AttrValue("a")}).ToString(),
            "[1, \"a\"]");
}

TEST(AttributeDatabaseTest, SetGetErase) {
  AttributeDatabase db;
  EXPECT_TRUE(db.empty());
  db.Set("load", 0.5);
  ASSERT_NE(db.Get("load"), nullptr);
  EXPECT_EQ(db.Get("load")->as_double(), 0.5);
  EXPECT_EQ(db.Get("missing"), nullptr);
  EXPECT_TRUE(db.Has("load"));
  EXPECT_TRUE(db.Erase("load"));
  EXPECT_FALSE(db.Erase("load"));
  EXPECT_FALSE(db.Has("load"));
}

TEST(AttributeDatabaseTest, GetOrFallsBack) {
  AttributeDatabase db;
  db.Set("x", 1);
  EXPECT_EQ(db.GetOr("x", AttrValue(9)).as_int(), 1);
  EXPECT_EQ(db.GetOr("y", AttrValue(9)).as_int(), 9);
}

TEST(AttributeDatabaseTest, MergeFromOverwrites) {
  AttributeDatabase a, b;
  a.Set("x", 1);
  a.Set("y", 1);
  b.Set("y", 2);
  b.Set("z", 3);
  a.MergeFrom(b);
  EXPECT_EQ(a.Get("x")->as_int(), 1);
  EXPECT_EQ(a.Get("y")->as_int(), 2);
  EXPECT_EQ(a.Get("z")->as_int(), 3);
  EXPECT_EQ(a.size(), 3u);
}

TEST(AttributeDatabaseTest, IterationIsSortedByName) {
  AttributeDatabase db;
  db.Set("zeta", 1);
  db.Set("alpha", 2);
  db.Set("mid", 3);
  std::vector<std::string> names;
  for (const auto& [name, value] : db) names.push_back(name);
  EXPECT_EQ(names, (std::vector<std::string>{"alpha", "mid", "zeta"}));
}

// Copy-on-write: copies share one map until either side writes.

// The integer stored under `name`, or -1 when it is absent.
std::int64_t IntOr(const AttributeDatabase& db, const std::string& name) {
  return db.GetOr(name, AttrValue(-1)).as_int();
}

AttributeDatabase TwoEntries() {
  AttributeDatabase db;
  db.Set("k", 1);
  db.Set("other", "x");
  return db;
}

TEST(AttributeDatabaseTest, CopiesShareStorageUntilAWrite) {
  AttributeDatabase a = TwoEntries();
  AttributeDatabase b = a;
  ASSERT_NE(a.Get("k"), nullptr);
  EXPECT_EQ(a.Get("k"), b.Get("k"));
  AttributeDatabase c;
  c = a;
  EXPECT_EQ(c.Get("k"), a.Get("k"));
  b.Set("other", "y");
  EXPECT_NE(a.Get("k"), b.Get("k"));
  EXPECT_EQ(a.Get("k"), c.Get("k"));
  a.Set("k", 1);
  EXPECT_NE(a.Get("k"), c.Get("k"));
}

TEST(AttributeDatabaseTest, SetOnASharedCopyIsIsolatedBothWays) {
  AttributeDatabase a = TwoEntries();
  AttributeDatabase b = a;
  b.Set("k", 2);
  b.Set("new", 3);
  EXPECT_EQ(IntOr(a, "k"), 1);
  EXPECT_FALSE(a.Has("new"));
  EXPECT_EQ(IntOr(b, "k"), 2);
  AttributeDatabase c = a;
  a.Set("k", 4);
  EXPECT_EQ(IntOr(c, "k"), 1);
  EXPECT_EQ(IntOr(a, "k"), 4);
}

TEST(AttributeDatabaseTest, EraseOnASharedCopyIsIsolatedBothWays) {
  AttributeDatabase a = TwoEntries();
  AttributeDatabase b = a;
  EXPECT_TRUE(b.Erase("k"));
  EXPECT_TRUE(a.Has("k"));
  EXPECT_FALSE(b.Has("k"));
  AttributeDatabase c = a;
  EXPECT_TRUE(a.Erase("other"));
  EXPECT_TRUE(c.Has("other"));
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(a.size(), 1u);
}

TEST(AttributeDatabaseTest, EraseOfAnAbsentNameKeepsSharing) {
  AttributeDatabase a = TwoEntries();
  AttributeDatabase b = a;
  EXPECT_FALSE(b.Erase("missing"));
  ASSERT_NE(a.Get("k"), nullptr);
  EXPECT_EQ(a.Get("k"), b.Get("k"));
}

TEST(AttributeDatabaseTest, ClearOnASharedCopyIsIsolatedBothWays) {
  AttributeDatabase a = TwoEntries();
  AttributeDatabase b = a;
  b.Clear();
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(a.size(), 2u);
  AttributeDatabase c = a;
  a.Clear();
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(IntOr(c, "k"), 1);
}

TEST(AttributeDatabaseTest, MergeFromOnASharedCopyIsIsolatedBothWays) {
  AttributeDatabase extra;
  extra.Set("k", 9);
  extra.Set("z", 5);
  AttributeDatabase a = TwoEntries();
  AttributeDatabase b = a;
  b.MergeFrom(extra);
  EXPECT_EQ(IntOr(a, "k"), 1);
  EXPECT_FALSE(a.Has("z"));
  EXPECT_EQ(IntOr(b, "k"), 9);
  AttributeDatabase c = a;
  a.MergeFrom(extra);
  EXPECT_EQ(IntOr(c, "k"), 1);
  EXPECT_FALSE(c.Has("z"));
  EXPECT_EQ(IntOr(a, "z"), 5);
  // The source is only read.
  EXPECT_EQ(extra.size(), 2u);
  // Merging a database into a copy of itself, or into itself, changes
  // no value.
  AttributeDatabase d = c;
  d.MergeFrom(c);
  d.MergeFrom(d);
  EXPECT_EQ(d.ToString(), c.ToString());
}

TEST(AttributeDatabaseTest, WritesChangeOnlyTheHandleThatWrote) {
  AttributeDatabase a = TwoEntries();
  AttributeDatabase b = a;
  b.Set("k", 2);
  EXPECT_EQ(IntOr(a, "k"), 1);
  EXPECT_EQ(IntOr(b, "k"), 2);
  AttributeDatabase c = a;
  for (auto write : {+[](AttributeDatabase& db) { db.Erase("k"); },
                     +[](AttributeDatabase& db) { db.Clear(); },
                     +[](AttributeDatabase& db) { db.MergeFrom(TwoEntries()); },
                     +[](AttributeDatabase& db) { db.Set("n", 1); }}) {
    write(c);
    EXPECT_EQ(a.ToString(), TwoEntries().ToString());
  }
  // Every write landed on c: the merge restored both entries, then "n".
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(IntOr(c, "n"), 1);
}

}  // namespace
}  // namespace legion
