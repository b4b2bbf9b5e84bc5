// Attribute indexes (collection_index.h): candidate soundness,
// boundary handling, and the join/update/leave maintenance that keeps
// them in lockstep with the Collection's record store.
#include "core/collection_index.h"

#include <gtest/gtest.h>

#include <iterator>
#include <limits>
#include <vector>

#include "base/rng.h"
#include "core/collection.h"
#include "test_world.h"

namespace legion {
namespace {

using testing::Await;
using testing::Count;
using testing::TestWorld;

Loid M(std::uint64_t serial) { return Loid(LoidSpace::kHost, 0, serial); }

query::IndexPlan Pred(const std::string& attr, query::PredicateOp op,
                      AttrValue literal = {}) {
  query::IndexPlan plan;
  plan.kind = query::IndexPlan::Kind::kPredicate;
  plan.pred = query::SargablePredicate{attr, op, std::move(literal)};
  return plan;
}

TEST(AttributeIndexesTest, EqualityLookup) {
  AttributeIndexes indexes;
  AttributeDatabase a;
  a.Set("arch", "x86");
  AttributeDatabase b;
  b.Set("arch", "sparc");
  indexes.Add(M(1), a);
  indexes.Add(M(2), b);
  indexes.Add(M(3), a);

  auto result =
      indexes.Eval(Pred("arch", query::PredicateOp::kEq, AttrValue("x86")));
  EXPECT_EQ(result.members, (std::vector<Loid>{M(1), M(3)}));
  auto miss =
      indexes.Eval(Pred("arch", query::PredicateOp::kEq, AttrValue("vax")));
  EXPECT_TRUE(miss.members.empty());
}

TEST(AttributeIndexesTest, RangeBoundariesAreInclusiveSupersets) {
  // The candidate contract is superset-only: a strict `< 1.0` must still
  // return the record at exactly 1.0 (the residual pass trims it).
  AttributeIndexes indexes;
  for (std::uint64_t i = 1; i <= 5; ++i) {
    AttributeDatabase db;
    db.Set("load", 0.5 * static_cast<double>(i));  // 0.5 .. 2.5
    indexes.Add(M(i), db);
  }
  auto lt = indexes.Eval(Pred("load", query::PredicateOp::kLt, AttrValue(1.0)));
  EXPECT_EQ(lt.members, (std::vector<Loid>{M(1), M(2)}));  // 0.5 and 1.0
  EXPECT_FALSE(lt.exact);
  auto gt = indexes.Eval(Pred("load", query::PredicateOp::kGt, AttrValue(2.0)));
  EXPECT_EQ(gt.members, (std::vector<Loid>{M(4), M(5)}));  // 2.0 and 2.5
}

TEST(AttributeIndexesTest, IntAndDoubleShareTheNumericIndex) {
  // CompareAttrValues compares across the int/double divide; so does the
  // index, which keys everything as double.
  AttributeIndexes indexes;
  AttributeDatabase ints;
  ints.Set("cpus", 4);
  AttributeDatabase doubles;
  doubles.Set("cpus", 4.0);
  indexes.Add(M(1), ints);
  indexes.Add(M(2), doubles);
  auto result =
      indexes.Eval(Pred("cpus", query::PredicateOp::kEq, AttrValue(4)));
  EXPECT_EQ(result.members, (std::vector<Loid>{M(1), M(2)}));
}

TEST(AttributeIndexesTest, DefinedUsesPresence) {
  AttributeIndexes indexes;
  AttributeDatabase with;
  with.Set("gpu", true);
  AttributeDatabase with_null;
  with_null.Set("gpu", AttrValue());  // null: not defined
  indexes.Add(M(1), with);
  indexes.Add(M(2), with_null);
  auto result = indexes.Eval(Pred("gpu", query::PredicateOp::kDefined));
  EXPECT_EQ(result.members, (std::vector<Loid>{M(1)}));
  EXPECT_TRUE(
      indexes.Eval(Pred("none", query::PredicateOp::kDefined)).members.empty());
}

TEST(AttributeIndexesTest, RemoveErasesEveryTrace) {
  AttributeIndexes indexes;
  AttributeDatabase db;
  db.Set("arch", "x86");
  db.Set("load", 0.5);
  db.Set("up", true);
  indexes.Add(M(1), db);
  EXPECT_EQ(indexes.attribute_count(), 3u);
  indexes.Remove(M(1), db);
  EXPECT_EQ(indexes.attribute_count(), 0u);  // empty structures pruned
}

TEST(AttributeIndexesTest, OrUnionsAndDeduplicates) {
  AttributeIndexes indexes;
  AttributeDatabase db;
  db.Set("arch", "x86");
  db.Set("load", 0.1);
  indexes.Add(M(1), db);
  query::IndexPlan plan;
  plan.kind = query::IndexPlan::Kind::kOr;
  plan.children.push_back(
      Pred("arch", query::PredicateOp::kEq, AttrValue("x86")));
  plan.children.push_back(
      Pred("load", query::PredicateOp::kLt, AttrValue(1.0)));
  auto result = indexes.Eval(plan);
  EXPECT_EQ(result.members, (std::vector<Loid>{M(1)}));  // once, not twice
}

TEST(AttributeIndexesTest, AndPrunesThroughCheapestChild) {
  AttributeIndexes indexes;
  for (std::uint64_t i = 1; i <= 100; ++i) {
    AttributeDatabase db;
    db.Set("arch", i == 7 ? "alpha" : "x86");
    db.Set("load", 0.5);
    indexes.Add(M(i), db);
  }
  query::IndexPlan plan;
  plan.kind = query::IndexPlan::Kind::kAnd;
  plan.children.push_back(
      Pred("arch", query::PredicateOp::kEq, AttrValue("alpha")));
  plan.children.push_back(
      Pred("load", query::PredicateOp::kLe, AttrValue(1.0)));
  auto result = indexes.Eval(plan);
  // The arch child (1 candidate) wins over the load child (100).
  EXPECT_EQ(result.members, (std::vector<Loid>{M(7)}));
  EXPECT_LE(indexes.Estimate(plan, 1000), 1u);
}

TEST(AttributeIndexesTest, EstimateHonorsTheCap) {
  AttributeIndexes indexes;
  for (std::uint64_t i = 1; i <= 50; ++i) {
    AttributeDatabase db;
    db.Set("load", static_cast<double>(i));
    indexes.Add(M(i), db);
  }
  const auto plan = Pred("load", query::PredicateOp::kLe, AttrValue(1e9));
  EXPECT_EQ(indexes.Estimate(plan, 1000), 50u);
  // Capped: stops counting shortly past the cap instead of walking all.
  EXPECT_GT(indexes.Estimate(plan, 10), 10u);
}

// ---- Diff maintenance: Update == Remove + Add ------------------------------

// A small vocabulary so random records collide on names and values.
const char* const kNames[] = {"arch", "cpus", "load", "up", "vaults", "tag"};

AttrValue RandomValue(Rng& rng) {
  switch (rng.Index(9)) {
    case 0:
      return AttrValue();  // null: present in the record, never indexed
    case 1:
      return AttrValue(rng.Bernoulli(0.5) ? "x86" : "sparc");
    case 2:
      return AttrValue(rng.UniformInt(0, 3));
    case 3:
      // Half-steps, so doubles land on the ints' values as often as not.
      return AttrValue(0.5 * static_cast<double>(rng.UniformInt(0, 6)));
    case 4:
      return AttrValue(rng.Bernoulli(0.5));
    case 5:
      return AttrValue(AttrList{"v1", rng.Bernoulli(0.5)});
    case 6:
      return AttrValue(std::numeric_limits<double>::quiet_NaN());
    case 7:
      return AttrValue(std::int64_t{2});  // equal to the double 2.0
    default:
      return AttrValue(2.0);
  }
}

AttributeDatabase RandomDatabase(Rng& rng) {
  AttributeDatabase db;
  for (const char* name : kNames) {
    if (rng.Bernoulli(0.6)) db.Set(name, RandomValue(rng));
  }
  return db;
}

// Every predicate shape over every name, plus and/or pairs of them.
std::vector<query::IndexPlan> PlanBattery() {
  using Op = query::PredicateOp;
  const std::vector<AttrValue> literals = {"x86", "sparc", true, false,
                                          2,     2.0,     1.5,  0};
  std::vector<query::IndexPlan> plans;
  for (const char* name : kNames) {
    plans.push_back(Pred(name, Op::kDefined));
    for (const AttrValue& literal : literals) {
      plans.push_back(Pred(name, Op::kEq, literal));
      if (!literal.is_numeric()) continue;
      for (Op op : {Op::kLt, Op::kLe, Op::kGt, Op::kGe}) {
        plans.push_back(Pred(name, op, literal));
      }
    }
  }
  const std::size_t singles = plans.size();
  for (std::size_t i = 0; i + 7 < singles; i += 7) {
    for (auto kind : {query::IndexPlan::Kind::kAnd,
                      query::IndexPlan::Kind::kOr}) {
      query::IndexPlan pair;
      pair.kind = kind;
      pair.children = {plans[i], plans[i + 7]};
      plans.push_back(pair);
    }
  }
  return plans;
}

void ExpectSameAnswers(const AttributeIndexes& actual,
                       const AttributeIndexes& expected,
                       const std::vector<query::IndexPlan>& plans,
                       int step) {
  ASSERT_EQ(actual.attribute_count(), expected.attribute_count())
      << "step " << step;
  for (const query::IndexPlan& plan : plans) {
    ASSERT_EQ(actual.Eval(plan).members, expected.Eval(plan).members)
        << plan.ToString() << " at step " << step;
    ASSERT_EQ(actual.Estimate(plan, 1000), expected.Estimate(plan, 1000))
        << plan.ToString() << " at step " << step;
  }
}

class IndexDiffEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IndexDiffEquivalence, UpdateMatchesRemoveThenAdd) {
  constexpr std::size_t kMembers = 6;
  Rng rng(GetParam());
  const std::vector<query::IndexPlan> plans = PlanBattery();
  AttributeIndexes diffed;
  AttributeIndexes rebuilt;
  std::vector<AttributeDatabase> stored(kMembers);
  for (int step = 0; step < 300; ++step) {
    const std::size_t m = rng.Index(kMembers);
    // Mostly small edits of the stored record, sometimes a fresh one
    // (or an empty one: join and leave).
    AttributeDatabase next = stored[m];
    const double shape = rng.UniformDouble();
    if (shape < 0.1) {
      next = AttributeDatabase{};
    } else if (shape < 0.3) {
      next = RandomDatabase(rng);
    } else {
      const char* name = kNames[rng.Index(std::size(kNames))];
      if (rng.Bernoulli(0.2)) {
        next.Erase(name);
      } else {
        next.Set(name, RandomValue(rng));
      }
    }
    diffed.Update(M(m + 1), stored[m], next);
    rebuilt.Remove(M(m + 1), stored[m]);
    rebuilt.Add(M(m + 1), next);
    stored[m] = next;
    ExpectSameAnswers(diffed, rebuilt, plans, step);
    if (HasFatalFailure()) return;
  }
  // And both agree with indexes built from scratch over the final store.
  AttributeIndexes fresh;
  for (std::size_t m = 0; m < kMembers; ++m) fresh.Add(M(m + 1), stored[m]);
  ExpectSameAnswers(diffed, fresh, plans, -1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexDiffEquivalence,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(AttributeIndexesTest, UpdateTouchesOnlyChangedNames) {
  AttributeIndexes indexes;
  AttributeDatabase before;
  before.Set("arch", "x86");
  before.Set("load", 0.5);
  before.Set("gone", true);
  indexes.Add(M(1), before);
  AttributeDatabase after;
  after.Set("arch", "x86");
  after.Set("load", 2);  // numeric kind change
  after.Set("fresh", "yes");
  indexes.Update(M(1), before, after);
  using Op = query::PredicateOp;
  EXPECT_EQ(indexes.Eval(Pred("arch", Op::kEq, AttrValue("x86"))).members,
            (std::vector<Loid>{M(1)}));
  EXPECT_TRUE(
      indexes.Eval(Pred("load", Op::kEq, AttrValue(0.5))).members.empty());
  EXPECT_EQ(indexes.Eval(Pred("load", Op::kEq, AttrValue(2.0))).members,
            (std::vector<Loid>{M(1)}));
  EXPECT_TRUE(indexes.Eval(Pred("gone", Op::kDefined)).members.empty());
  EXPECT_EQ(indexes.Eval(Pred("fresh", Op::kDefined)).members,
            (std::vector<Loid>{M(1)}));
  EXPECT_EQ(indexes.attribute_count(), 3u);  // arch, load, fresh
}

// ---- Maintenance through the Collection ------------------------------------

class CollectionIndexTest : public ::testing::Test {
 protected:
  AttributeDatabase HostRecord(const std::string& arch, double load) {
    AttributeDatabase db;
    db.Set("host_arch", arch);
    db.Set("host_load", load);
    return db;
  }

  TestWorld world_;
};

TEST_F(CollectionIndexTest, JoinUpdateLeaveKeepIndexConsistent) {
  Await<bool> joined;
  world_.collection->JoinCollection(M(1), HostRecord("x86", 0.9),
                                    joined.Sink());
  auto x86 = world_.collection->QueryLocal("$host_arch == \"x86\"");
  ASSERT_EQ(x86->size(), 1u);
  EXPECT_GE(Count(world_.kernel, "index_hits", "collection"), 1u);

  // Update flips the arch; the old index entry must be gone.
  Await<bool> updated;
  world_.collection->UpdateCollectionEntry(M(1), HostRecord("sparc", 0.1),
                                           updated.Sink());
  EXPECT_TRUE(world_.collection->QueryLocal("$host_arch == \"x86\"")->empty());
  EXPECT_EQ(world_.collection->QueryLocal("$host_arch == \"sparc\"")->size(),
            1u);

  Await<bool> left;
  world_.collection->LeaveCollection(M(1), left.Sink());
  EXPECT_TRUE(
      world_.collection->QueryLocal("$host_arch == \"sparc\"")->empty());
}

TEST_F(CollectionIndexTest, IndexAndScanCountersSplitTraffic) {
  Await<bool> joined;
  world_.collection->JoinCollection(M(1), HostRecord("x86", 0.5),
                                    joined.Sink());
  const auto hits = Count(world_.kernel, "index_hits", "collection");
  const auto fallbacks =
      Count(world_.kernel, "planner_fallbacks", "collection");
  (void)world_.collection->QueryLocal("$host_arch == \"x86\"");  // sargable
  (void)world_.collection->QueryLocal("match($host_arch, \"x\")");  // not
  QueryOptions force;
  force.force_scan = true;
  (void)world_.collection->QueryLocal("$host_arch == \"x86\"", force);
  EXPECT_EQ(Count(world_.kernel, "index_hits", "collection"), hits + 1);
  EXPECT_EQ(Count(world_.kernel, "planner_fallbacks", "collection"),
            fallbacks + 2);
}

TEST_F(CollectionIndexTest, CompileCacheCountsHitsAndMisses) {
  Await<bool> joined;
  world_.collection->JoinCollection(M(1), HostRecord("x86", 0.5),
                                    joined.Sink());
  const std::string text = "$host_load < 1.0";
  (void)world_.collection->QueryLocal(text);
  (void)world_.collection->QueryLocal(text);
  (void)world_.collection->QueryLocal(text);
  EXPECT_EQ(Count(world_.kernel, "compile_cache_misses", "collection"), 1u);
  EXPECT_EQ(Count(world_.kernel, "compile_cache_hits", "collection"), 2u);
}

TEST_F(CollectionIndexTest, MaxResultsAndOrderByPrune) {
  for (std::uint64_t i = 1; i <= 10; ++i) {
    Await<bool> joined;
    world_.collection->JoinCollection(
        M(i), HostRecord("x86", 1.0 - 0.1 * static_cast<double>(i)),
        joined.Sink());
  }
  QueryOptions top3;
  top3.max_results = 3;
  top3.order_by = "host_load";
  auto result = world_.collection->QueryLocal("$host_arch == \"x86\"", top3);
  ASSERT_EQ(result->size(), 3u);
  // Least-loaded first: members 10, 9, 8 carry loads 0.0, 0.1, 0.2.
  EXPECT_EQ((*result)[0].member, M(10));
  EXPECT_EQ((*result)[1].member, M(9));
  EXPECT_EQ((*result)[2].member, M(8));

  QueryOptions member_order;
  member_order.max_results = 2;
  auto first_two =
      world_.collection->QueryLocal("$host_arch == \"x86\"", member_order);
  ASSERT_EQ(first_two->size(), 2u);
  EXPECT_EQ((*first_two)[0].member, M(1));
  EXPECT_EQ((*first_two)[1].member, M(2));
}

TEST_F(CollectionIndexTest, DerivedAttributesMaterializeOnEmittedOnly) {
  // The injected function runs once per *emitted* record: with top-k
  // pruning the pruned matches never pay for materialization.
  int calls = 0;
  world_.collection->functions().Register(
      "expensive", [&calls](const AttributeDatabase&,
                            const std::vector<AttrValue>&) -> AttrValue {
        ++calls;
        return AttrValue(1);
      });
  for (std::uint64_t i = 1; i <= 20; ++i) {
    Await<bool> joined;
    world_.collection->JoinCollection(M(i), HostRecord("x86", 0.5),
                                      joined.Sink());
  }
  QueryOptions top2;
  top2.max_results = 2;
  auto result = world_.collection->QueryLocal("$host_arch == \"x86\"", top2);
  ASSERT_EQ(result->size(), 2u);
  EXPECT_EQ(calls, 2);
  EXPECT_EQ((*result)[0].attributes.Get("expensive")->as_int(), 1);
}

}  // namespace
}  // namespace legion
