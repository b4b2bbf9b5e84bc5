#include "core/collection_index.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>

namespace legion {

namespace {

// Inserts into / erases from a keyed set map, dropping empty sets so
// update churn cannot leave tombstone keys behind.
template <typename Map, typename Key>
void MapInsert(Map& map, const Key& key, const Loid& member) {
  map[key].insert(member);
}

template <typename Map, typename Key>
void MapErase(Map& map, const Key& key, const Loid& member) {
  auto it = map.find(key);
  if (it == map.end()) return;
  it->second.erase(member);
  if (it->second.empty()) map.erase(it);
}

// True when the two values occupy exactly the same index entries, so an
// update from one to the other has nothing to re-index.  Numbers compare
// as their double keys (an int and a double of equal value share one
// entry; NaN has none), and lists live only in the presence set.
bool SameEntries(const AttrValue& a, const AttrValue& b) {
  if (a.is_numeric() && b.is_numeric()) {
    const double x = a.as_double();
    const double y = b.as_double();
    return x == y || (std::isnan(x) && std::isnan(y));
  }
  if (a.storage().index() != b.storage().index()) return false;
  if (a.is_string()) return a.as_string() == b.as_string();
  if (a.is_bool()) return a.as_bool() == b.as_bool();
  return true;  // both null, or both lists
}

}  // namespace

void AttributeIndexes::Add(const Loid& member, const AttributeDatabase& attrs) {
  Update(member, AttributeDatabase{}, attrs);
}

void AttributeIndexes::Remove(const Loid& member,
                              const AttributeDatabase& attrs) {
  Update(member, attrs, AttributeDatabase{});
}

void AttributeIndexes::Update(const Loid& member,
                              const AttributeDatabase& before,
                              const AttributeDatabase& after) {
  // Both databases iterate in name order: merge them, treating a name
  // missing on one side as null there.
  static const AttrValue kNull;
  auto b = before.begin();
  auto a = after.begin();
  while (b != before.end() || a != after.end()) {
    // < 0: the name is only in `before`; > 0: only in `after`.
    int order = 1;
    if (a == after.end()) {
      order = -1;
    } else if (b != before.end()) {
      order = b->first.compare(a->first);
    }
    const std::string& name = order <= 0 ? b->first : a->first;
    const AttrValue& old_value = order <= 0 ? b->second : kNull;
    const AttrValue& new_value = order >= 0 ? a->second : kNull;
    if (!SameEntries(old_value, new_value)) {
      Reindex(member, name, old_value, new_value);
    }
    if (order <= 0) ++b;
    if (order >= 0) ++a;
  }
}

void AttributeIndexes::Reindex(const Loid& member, const std::string& name,
                               const AttrValue& old_value,
                               const AttrValue& new_value) {
  if (new_value.is_null()) {
    auto it = attrs_.find(name);
    if (it == attrs_.end()) return;
    PerAttribute& index = it->second;
    index.present.erase(member);
    EraseValue(index, old_value, member);
    if (index.present.empty() && index.by_string.empty() &&
        index.by_number.empty() && index.by_bool[0].empty() &&
        index.by_bool[1].empty()) {
      attrs_.erase(it);
    }
    return;
  }
  PerAttribute& index = attrs_[name];
  if (old_value.is_null()) {
    index.present.insert(member);
  } else {
    EraseValue(index, old_value, member);
  }
  InsertValue(index, new_value, member);
}

void AttributeIndexes::InsertValue(PerAttribute& index, const AttrValue& value,
                                   const Loid& member) {
  if (value.is_string()) {
    MapInsert(index.by_string, value.as_string(), member);
  } else if (value.is_numeric()) {
    const double key = value.as_double();
    if (!std::isnan(key)) MapInsert(index.by_number, key, member);
  } else if (value.is_bool()) {
    index.by_bool[value.as_bool() ? 1 : 0].insert(member);
  }
  // Lists are reachable through the presence index only.
}

void AttributeIndexes::EraseValue(PerAttribute& index, const AttrValue& value,
                                  const Loid& member) {
  if (value.is_string()) {
    MapErase(index.by_string, value.as_string(), member);
  } else if (value.is_numeric()) {
    const double key = value.as_double();
    if (!std::isnan(key)) MapErase(index.by_number, key, member);
  } else if (value.is_bool()) {
    index.by_bool[value.as_bool() ? 1 : 0].erase(member);
  }
}

template <typename Visit>
void AttributeIndexes::ForEachSet(const query::SargablePredicate& pred,
                                  Visit&& visit) const {
  auto it = attrs_.find(pred.attr);
  if (it == attrs_.end()) return;  // attribute never seen: no candidates
  const PerAttribute& index = it->second;

  // Numeric predicates select the key range [begin, end).
  auto begin = index.by_number.begin();
  auto end = index.by_number.end();
  switch (pred.op) {
    case query::PredicateOp::kDefined:
      visit(index.present);
      return;
    case query::PredicateOp::kEq:
      if (pred.literal.is_string()) {
        auto set = index.by_string.find(pred.literal.as_string());
        if (set != index.by_string.end()) visit(set->second);
        return;
      }
      if (pred.literal.is_bool()) {
        visit(index.by_bool[pred.literal.as_bool() ? 1 : 0]);
        return;
      }
      if (!pred.literal.is_numeric()) return;
      std::tie(begin, end) =
          index.by_number.equal_range(pred.literal.as_double());
      break;
    // Ranges are inclusive at the boundary in both directions; the
    // residual pass trims the edge (planner.h explains why this must stay
    // a superset).
    case query::PredicateOp::kLt:
    case query::PredicateOp::kLe:
      end = index.by_number.upper_bound(pred.literal.as_double());
      break;
    case query::PredicateOp::kGt:
    case query::PredicateOp::kGe:
      begin = index.by_number.lower_bound(pred.literal.as_double());
      break;
  }
  for (auto key = begin; key != end; ++key) {
    if (!visit(key->second)) return;
  }
}

void AttributeIndexes::PredicateInto(const query::SargablePredicate& pred,
                                     std::vector<Loid>* out) const {
  ForEachSet(pred, [out](const std::set<Loid>& set) {
    out->insert(out->end(), set.begin(), set.end());
    return true;
  });
}

std::size_t AttributeIndexes::EstimatePredicate(
    const query::SargablePredicate& pred, std::size_t cap) const {
  // Stops at the cap: an unselective range is about to lose to the scan
  // (or to a cheaper `and` sibling) anyway, so an exact count of a huge
  // range is money down the drain.
  std::size_t n = 0;
  ForEachSet(pred, [&n, cap](const std::set<Loid>& set) {
    n += set.size();
    return n <= cap;
  });
  return n;
}

std::size_t AttributeIndexes::Estimate(const query::IndexPlan& plan,
                                       std::size_t cap) const {
  switch (plan.kind) {
    case query::IndexPlan::Kind::kPredicate:
      return EstimatePredicate(plan.pred, cap);
    case query::IndexPlan::Kind::kAnd: {
      // The cap shrinks as better children turn up, so expensive range
      // counts stop as soon as they lose.
      std::size_t best = std::numeric_limits<std::size_t>::max();
      for (const auto& child : plan.children) {
        best = std::min(best, Estimate(child, std::min(cap, best)));
      }
      return best;
    }
    case query::IndexPlan::Kind::kOr: {
      std::size_t total = 0;
      for (const auto& child : plan.children) {
        total += Estimate(child, cap);
        if (total > cap) break;
      }
      return total;
    }
  }
  return std::numeric_limits<std::size_t>::max();
}

void AttributeIndexes::EvalInto(const query::IndexPlan& plan,
                                std::vector<Loid>* out) const {
  switch (plan.kind) {
    case query::IndexPlan::Kind::kPredicate:
      PredicateInto(plan.pred, out);
      return;
    case query::IndexPlan::Kind::kAnd: {
      // Matches are a subset of every conjunct's candidates, so prune
      // through the cheapest child and let the residual pass check the
      // rest -- intersecting the large siblings would cost more than it
      // saves.
      const query::IndexPlan* cheapest = nullptr;
      std::size_t best = std::numeric_limits<std::size_t>::max();
      for (const auto& child : plan.children) {
        const std::size_t estimate = Estimate(child, std::min(
            best, std::numeric_limits<std::size_t>::max() - 1));
        if (estimate < best) {
          best = estimate;
          cheapest = &child;
        }
      }
      if (cheapest != nullptr) EvalInto(*cheapest, out);
      return;
    }
    case query::IndexPlan::Kind::kOr:
      for (const auto& child : plan.children) EvalInto(child, out);
      return;
  }
}

AttributeIndexes::Candidates AttributeIndexes::Eval(
    const query::IndexPlan& plan) const {
  Candidates result;
  result.exact = plan.exact;
  EvalInto(plan, &result.members);
  // Individual member sets come out LOID-sorted, but ranges and unions
  // interleave sets; restore the canonical order (and drop duplicates a
  // record can earn by matching several `or` branches).
  std::sort(result.members.begin(), result.members.end());
  result.members.erase(
      std::unique(result.members.begin(), result.members.end()),
      result.members.end());
  return result;
}

}  // namespace legion
