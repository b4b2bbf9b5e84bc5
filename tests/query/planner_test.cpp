// The query planner (planner.h): which predicates are sargable, how
// plans mirror the boolean structure, and when a plan may claim to be
// exact (the soundness-critical bit -- an exact plan skips the residual
// pass).
#include "query/planner.h"

#include <gtest/gtest.h>

#include "query/compile_cache.h"
#include "query/query.h"

namespace legion::query {
namespace {

std::shared_ptr<const IndexPlan> Plan(const std::string& text) {
  auto query = CompiledQuery::Compile(text);
  EXPECT_TRUE(query.ok()) << text;
  if (!query.ok()) return nullptr;
  // CompiledQuery computes the plan once at compile time.
  const IndexPlan* plan = query->plan();
  if (plan == nullptr) return nullptr;
  return std::make_shared<const IndexPlan>(*plan);
}

TEST(PlannerTest, StringEqualityIsSargableAndExact) {
  auto plan = Plan("$host_arch == \"x86\"");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->kind, IndexPlan::Kind::kPredicate);
  EXPECT_EQ(plan->pred.attr, "host_arch");
  EXPECT_EQ(plan->pred.op, PredicateOp::kEq);
  EXPECT_EQ(plan->pred.literal.as_string(), "x86");
  EXPECT_TRUE(plan->exact);
}

TEST(PlannerTest, NumericEqualityIsSargableButInexact) {
  // The ordered index is keyed as double; int-vs-double coercion keeps
  // the candidate set a superset, so the residual pass stays on.
  auto plan = Plan("$host_cpus == 8");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->pred.op, PredicateOp::kEq);
  EXPECT_FALSE(plan->exact);
}

TEST(PlannerTest, RangesAreSargable) {
  auto plan = Plan("$host_load < 0.5");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->pred.op, PredicateOp::kLt);
  EXPECT_FALSE(plan->exact);
  for (const char* text : {"$host_load <= 0.5", "$host_load > 0.5",
                           "$host_load >= 0.5"}) {
    EXPECT_NE(Plan(text), nullptr) << text;
  }
}

TEST(PlannerTest, FlippedComparisonNormalizes) {
  // `0.5 > $host_load` is `$host_load < 0.5`.
  auto plan = Plan("0.5 > $host_load");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->pred.attr, "host_load");
  EXPECT_EQ(plan->pred.op, PredicateOp::kLt);
  EXPECT_EQ(plan->pred.literal.as_double(), 0.5);
}

TEST(PlannerTest, DefinedIsSargableAndExact) {
  auto plan = Plan("defined($host_cpus)");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->pred.op, PredicateOp::kDefined);
  EXPECT_EQ(plan->pred.attr, "host_cpus");
  EXPECT_TRUE(plan->exact);
}

TEST(PlannerTest, NeverSargableForms) {
  // Records matching these cannot be enumerated from an index.
  for (const char* text : {
           "$host_cpus != 8",
           "match($host_os_name, \"IRIX\")",
           "contains($tags, \"fast\")",
           "not ($host_arch == \"x86\")",
           "$host_load < $host_cpus",   // attr-vs-attr
           "$flag",                     // bare attribute
           "true",
           "forecast() < 1.0",          // injected call
       }) {
    EXPECT_EQ(Plan(text), nullptr) << text;
  }
}

TEST(PlannerTest, AndKeepsSargableSideButDropsExactness) {
  // One sargable conjunct prunes; the dropped match() goes unchecked
  // until the residual pass, so the plan must not claim exactness.
  auto plan = Plan("$host_arch == \"x86\" and match($host_os_name, \"L\")");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->kind, IndexPlan::Kind::kPredicate);
  EXPECT_EQ(plan->pred.attr, "host_arch");
  EXPECT_FALSE(plan->exact);
}

TEST(PlannerTest, AndOfSargablesBuildsAndNode) {
  auto plan = Plan("$host_arch == \"x86\" and $host_load < 0.5 and "
                   "defined($host_cpus)");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->kind, IndexPlan::Kind::kAnd);
  EXPECT_EQ(plan->children.size(), 3u);  // flattened n-ary
  EXPECT_FALSE(plan->exact);  // the numeric range child is inexact
}

TEST(PlannerTest, OrRequiresBothSides) {
  EXPECT_EQ(Plan("$host_arch == \"x86\" or match($host_os_name, \"L\")"),
            nullptr);
  auto plan = Plan("$host_arch == \"x86\" or $host_arch == \"alpha\"");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->kind, IndexPlan::Kind::kOr);
  EXPECT_EQ(plan->children.size(), 2u);
  // Union of exact branches is exact.
  EXPECT_TRUE(plan->exact);
}

TEST(PlannerTest, OrExactnessNeedsEveryBranchExact) {
  // The left branch collapsed to a lone exact-looking predicate, but it
  // stands in for an `and` with an unchecked match() -- claiming Or
  // exactness here would return false positives.
  auto plan = Plan("($host_arch == \"x86\" and match($host_os_name, \"L\")) "
                   "or $host_arch == \"alpha\"");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->kind, IndexPlan::Kind::kOr);
  EXPECT_FALSE(plan->exact);
}

TEST(PlannerTest, HostMatchQueryShapeIsFullySargable) {
  // The query every scheduler issues: an or of (arch and os) pairs.
  auto plan = Plan(
      "($host_arch == \"x86\" and $host_os_name == \"Linux\") or "
      "($host_arch == \"mips\" and $host_os_name == \"IRIX\")");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->kind, IndexPlan::Kind::kOr);
  ASSERT_EQ(plan->children.size(), 2u);
  for (const IndexPlan& branch : plan->children) {
    EXPECT_EQ(branch.kind, IndexPlan::Kind::kAnd);
    EXPECT_EQ(branch.children.size(), 2u);
    EXPECT_TRUE(branch.exact);
  }
  // Every branch intersects exact string equalities, so the index answer
  // is the match set and the residual pass is skipped.
  EXPECT_TRUE(plan->exact);
}

TEST(PlannerTest, AndOfExactPredicatesIsExact) {
  auto plan = Plan("$host_arch == \"x86\" and $host_os_name == \"Linux\" "
                   "and defined($host_cpus) and $up == true");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->kind, IndexPlan::Kind::kAnd);
  EXPECT_EQ(plan->children.size(), 4u);
  EXPECT_TRUE(plan->exact);
}

TEST(PlannerTest, AndHidingADroppedConjunctStaysInexact) {
  // The inner `and` drops match() and keeps two exact children; once
  // flattened into the outer `and`, every child is exact, but the plan
  // still stands in for an unchecked conjunct.
  auto plan = Plan("(($host_arch == \"x86\" and $host_os_name == \"Linux\") "
                   "and match($host_os_version, \"5\")) and $up == true");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->kind, IndexPlan::Kind::kAnd);
  ASSERT_EQ(plan->children.size(), 3u);
  for (const IndexPlan& child : plan->children) EXPECT_TRUE(child.exact);
  EXPECT_FALSE(plan->exact);
}

TEST(PlannerTest, PlanToStringRoundTrips) {
  auto plan = Plan("$host_load < 0.5 and $host_arch == \"x86\"");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->ToString(), "($host_load < 0.5 and $host_arch == \"x86\")");
}

TEST(PlannerTest, CopiedQueriesShareThePlan) {
  auto query = CompiledQuery::Compile("$host_arch == \"x86\"");
  ASSERT_TRUE(query.ok());
  CompiledQuery copy = *query;
  EXPECT_EQ(copy.plan(), query->plan());
}

// ---- CompileCache boundary conditions (ISSUE 4 satellite) ------------------

std::string QueryText(int i) {
  return "$host_load < " + std::to_string(i) + ".5";
}

TEST(CompileCacheTest, EvictsBeforeInsertNeverExceedsCapacity) {
  // Regression: the insert path used to push the fresh entry first and
  // evict after, so the cache transiently held capacity_+1 entries.
  CompileCache cache(2);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(cache.Get(QueryText(i)).ok());
    EXPECT_LE(cache.size(), cache.capacity()) << "after insert #" << i;
  }
  EXPECT_EQ(cache.size(), 2u);
}

TEST(CompileCacheTest, ZeroCapacityDisablesCachingButStillCompiles) {
  // Regression: capacity 0 used to be silently promoted to 1 in the
  // constructor (capacity() reported 1); with evict-after-insert a true
  // zero would have evicted its own fresh entry and left a dangling
  // iterator in the map.  Zero now means "compile-through, retain
  // nothing".
  CompileCache cache(0);
  EXPECT_EQ(cache.capacity(), 0u);
  for (int i = 0; i < 3; ++i) {
    bool hit = true;
    auto compiled = cache.Get(QueryText(0), &hit);
    ASSERT_TRUE(compiled.ok());
    EXPECT_FALSE(hit);  // never served from cache
    EXPECT_EQ(cache.size(), 0u);
  }
  // Compilation itself still works: the result is usable.
  auto bad = cache.Get("$host_load <");
  EXPECT_FALSE(bad.ok());
}

TEST(CompileCacheTest, EvictionIsLeastRecentlyUsed) {
  CompileCache cache(2);
  ASSERT_TRUE(cache.Get(QueryText(0)).ok());
  ASSERT_TRUE(cache.Get(QueryText(1)).ok());
  // Touch #0 so #1 becomes the LRU victim.
  bool hit = false;
  ASSERT_TRUE(cache.Get(QueryText(0), &hit).ok());
  EXPECT_TRUE(hit);
  ASSERT_TRUE(cache.Get(QueryText(2)).ok());  // evicts #1
  ASSERT_TRUE(cache.Get(QueryText(0), &hit).ok());
  EXPECT_TRUE(hit);
  ASSERT_TRUE(cache.Get(QueryText(1), &hit).ok());
  EXPECT_FALSE(hit);  // was evicted
}

}  // namespace
}  // namespace legion::query
