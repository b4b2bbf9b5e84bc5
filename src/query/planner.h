// The query planner: turns a compiled query's AST into an *index plan*
// that a Collection can answer from its attribute indexes instead of a
// full scan.
//
// A predicate is *sargable* (search-argument-able) when it constrains a
// single attribute against a literal in a way an index can answer:
//
//   * equality:      $attr == <string|bool|number literal>
//   * numeric range: $attr < n, <= n, > n, >= n   (n a number literal)
//   * presence:      defined($attr)
//
// Flipped comparisons (`0.5 > $host_load`) are normalized.  `!=`,
// match(), contains(), injected calls, and `not (...)` are never
// sargable -- records matching them cannot be enumerated from an index
// without scanning.
//
// Plans compose through the boolean structure of the query:
//
//   * and: candidates of ANY sargable conjunct form a superset of the
//     matches, so the evaluator may pick the cheapest child.  When every
//     conjunct is sargable and exact, the `and` is exact too: the
//     evaluator intersects the children's candidates, which then equal
//     the matches.
//   * or:  a plan exists only when EVERY branch is sargable; the
//     candidate set is the union of the branches.
//
// The contract is one-sided: a plan's candidate set must contain every
// record that matches the full query (no false negatives); it may
// contain extras.  The Collection re-evaluates the complete query over
// the candidates (the residual pass) unless the index evaluation reports
// the set as exact.  Whole-query fallback to a scan -- when nothing is
// sargable -- is byte-identical to the plan path; the planner-equivalence
// property test enforces this.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "base/attributes.h"
#include "query/ast.h"

namespace legion::query {

enum class PredicateOp { kEq, kLt, kLe, kGt, kGe, kDefined };

const char* ToString(PredicateOp op);

// One index-answerable predicate: `$attr op literal` (literal unused for
// kDefined).
struct SargablePredicate {
  std::string attr;
  PredicateOp op = PredicateOp::kEq;
  AttrValue literal;

  std::string ToString() const;
};

// A tree of sargable predicates mirroring the query's and/or structure.
struct IndexPlan {
  enum class Kind { kPredicate, kAnd, kOr };

  Kind kind = Kind::kPredicate;
  SargablePredicate pred;          // kPredicate only
  std::vector<IndexPlan> children; // kAnd / kOr only
  // True when this plan's candidate set equals the match set of the
  // *entire* subexpression it was derived from, so the residual pass can
  // be skipped.  False whenever anything was approximated: a dropped
  // non-sargable conjunct, an `and` or `or` with an inexact side (an
  // inexact `and` prunes through one child only), or numeric keys (the
  // ordered index compares as double; equality on huge int64s and range
  // boundaries are widened to stay superset-safe).
  bool exact = false;

  std::string ToString() const;
};

// Walks the AST and extracts the index plan, or nullptr when nothing in
// the query is sargable (the Collection then falls back to a full scan).
// The plan is immutable and shared by every copy of the CompiledQuery.
std::shared_ptr<const IndexPlan> PlanQuery(const Expr& root);

}  // namespace legion::query
