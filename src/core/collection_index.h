// Attribute indexes for the Collection's record store.
//
// Every attribute of every record is indexed by value kind:
//
//   * strings -> hash map of value -> member set (equality),
//   * numbers -> ordered map keyed by the value *as double* -> member
//     set (equality and ranges; int and double compare across the divide
//     exactly like CompareAttrValues, NaN values are unindexable and
//     excluded -- NaN matches no comparison anyway),
//   * bools   -> two member sets,
//   * presence -> member set of records carrying a non-null value
//     (serves defined($attr); lists appear only here).
//
// Maintained by diff on the single simulation thread (DESIGN.md §3,
// §8): on join, update and leave the Collection hands Update() the
// stored record and its replacement, and only the entries of attributes
// whose value changed are touched.  Member sets are ordered by LOID, so
// candidate lists come out sorted in the Collection's canonical result
// order for free.
//
// The candidate contract matches planner.h: for any record matching the
// full query, the plan's candidate set contains it, and an exact plan's
// candidate set is the match set (an exact `and` intersects its
// children's sorted member lists).  Range boundaries are answered
// inclusively (the residual pass trims the edge) so that int64 keys that
// collide when widened to double can never be dropped.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/attributes.h"
#include "base/loid.h"
#include "query/planner.h"

namespace legion {

class AttributeIndexes {
 public:
  // Moves `member`'s entries from the record `before` to the record
  // `after`: a name only in `before` is unindexed, a name only in
  // `after` is indexed, and a name whose value changed kind or value is
  // re-indexed.  Unchanged names cost one comparison.  The caller keeps
  // `before` equal to what it last indexed for `member`, so the
  // structures never drift from the store.
  void Update(const Loid& member, const AttributeDatabase& before,
              const AttributeDatabase& after);
  // Update from or to an empty record (join and leave).
  void Add(const Loid& member, const AttributeDatabase& attrs);
  void Remove(const Loid& member, const AttributeDatabase& attrs);

  // The result of evaluating an index plan.
  struct Candidates {
    std::vector<Loid> members;  // sorted ascending, unique
    bool exact = false;         // plan-level exactness (planner.h)
  };

  // Evaluates the plan against the indexes.  An exact `and` intersects
  // its children's candidates and stops once the intersection is empty;
  // an inexact `and` prunes through its cheapest child (by Estimate);
  // `or` nodes union every branch.
  Candidates Eval(const query::IndexPlan& plan) const;

  // Candidate count for the plan without materializing anything,
  // counted only up to `cap`: once the running count exceeds the cap
  // the walk stops and the (now cap-exceeding) partial count returns.
  // An `and` counts its cheapest child, so the estimate of an exact
  // `and` is an upper bound.  The Collection skips the index path for
  // an inexact plan whose estimate is close to the store size --
  // gathering and re-checking would cost more than the scan.
  std::size_t Estimate(const query::IndexPlan& plan, std::size_t cap) const;

  std::size_t attribute_count() const { return attrs_.size(); }

 private:
  struct PerAttribute {
    std::unordered_map<std::string, std::set<Loid>> by_string;
    std::map<double, std::set<Loid>> by_number;
    std::set<Loid> by_bool[2];
    std::set<Loid> present;
  };

  // Moves `member` from `old_value`'s entries to `new_value`'s under
  // attribute `name`; a null value has no entries.
  void Reindex(const Loid& member, const std::string& name,
               const AttrValue& old_value, const AttrValue& new_value);
  // The value-keyed entry (string, number or bool set) of a non-null
  // value; the presence set is the caller's.
  static void InsertValue(PerAttribute& index, const AttrValue& value,
                          const Loid& member);
  static void EraseValue(PerAttribute& index, const AttrValue& value,
                         const Loid& member);

  // EvalInto appends the plan's candidates unordered and possibly
  // repeated; SortedMembers returns them sorted and unique.
  void EvalInto(const query::IndexPlan& plan, std::vector<Loid>* out) const;
  std::vector<Loid> SortedMembers(const query::IndexPlan& plan) const;
  // Calls visit(set) for each member set `pred` selects, in key order,
  // until visit returns false.  PredicateInto appends the members;
  // EstimatePredicate sums the set sizes up to its cap.
  template <typename Visit>
  void ForEachSet(const query::SargablePredicate& pred, Visit&& visit) const;
  void PredicateInto(const query::SargablePredicate& pred,
                     std::vector<Loid>* out) const;
  std::size_t EstimatePredicate(const query::SargablePredicate& pred,
                                std::size_t cap) const;

  std::unordered_map<std::string, PerAttribute> attrs_;
};

}  // namespace legion
