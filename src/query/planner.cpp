#include "query/planner.h"

#include <cmath>
#include <optional>
#include <utility>

namespace legion::query {

const char* ToString(PredicateOp op) {
  switch (op) {
    case PredicateOp::kEq: return "==";
    case PredicateOp::kLt: return "<";
    case PredicateOp::kLe: return "<=";
    case PredicateOp::kGt: return ">";
    case PredicateOp::kGe: return ">=";
    case PredicateOp::kDefined: return "defined";
  }
  return "?";
}

std::string SargablePredicate::ToString() const {
  if (op == PredicateOp::kDefined) return "defined($" + attr + ")";
  return "$" + attr + " " + query::ToString(op) + " " + literal.ToString();
}

std::string IndexPlan::ToString() const {
  if (kind == Kind::kPredicate) return pred.ToString();
  std::string joiner = kind == Kind::kAnd ? " and " : " or ";
  std::string out = "(";
  for (std::size_t i = 0; i < children.size(); ++i) {
    if (i != 0) out += joiner;
    out += children[i].ToString();
  }
  return out + ")";
}

namespace {

std::optional<PredicateOp> Sargable(CompareExpr::Op op) {
  switch (op) {
    case CompareExpr::Op::kEq: return PredicateOp::kEq;
    case CompareExpr::Op::kLt: return PredicateOp::kLt;
    case CompareExpr::Op::kLe: return PredicateOp::kLe;
    case CompareExpr::Op::kGt: return PredicateOp::kGt;
    case CompareExpr::Op::kGe: return PredicateOp::kGe;
    case CompareExpr::Op::kNe: return std::nullopt;
  }
  return std::nullopt;
}

// `5 > $a` is `$a < 5`.
PredicateOp Flip(PredicateOp op) {
  switch (op) {
    case PredicateOp::kLt: return PredicateOp::kGt;
    case PredicateOp::kLe: return PredicateOp::kGe;
    case PredicateOp::kGt: return PredicateOp::kLt;
    case PredicateOp::kGe: return PredicateOp::kLe;
    default: return op;
  }
}

std::optional<IndexPlan> PlanExpr(const Expr& expr);

std::optional<IndexPlan> PlanCompare(const CompareExpr& cmp) {
  auto op = Sargable(cmp.op());
  if (!op.has_value()) return std::nullopt;

  const auto* attr = dynamic_cast<const AttrRefExpr*>(&cmp.lhs());
  const auto* literal = dynamic_cast<const LiteralExpr*>(&cmp.rhs());
  if (attr == nullptr || literal == nullptr) {
    // Try the flipped orientation: literal op $attr.
    attr = dynamic_cast<const AttrRefExpr*>(&cmp.rhs());
    literal = dynamic_cast<const LiteralExpr*>(&cmp.lhs());
    if (attr == nullptr || literal == nullptr) return std::nullopt;
    op = Flip(*op);
  }

  const AttrValue& value = literal->value();
  if (*op == PredicateOp::kEq) {
    // Equality is index-answerable for scalar literals; NaN never
    // equals anything and a null/list literal cannot be written, so
    // leave those to the scan.
    if (value.is_string() || value.is_bool()) {
      // exactly answerable
    } else if (value.is_numeric()) {
      if (std::isnan(value.as_double())) return std::nullopt;
    } else {
      return std::nullopt;
    }
  } else {
    // Ranges come from the ordered numeric index only.  (String
    // ordering exists in the language but is rare on the hot path.)
    if (!value.is_numeric() || std::isnan(value.as_double())) {
      return std::nullopt;
    }
  }

  IndexPlan plan;
  plan.kind = IndexPlan::Kind::kPredicate;
  plan.pred = SargablePredicate{attr->name(), *op, value};
  // String/bool equality is answered by exact-key lookup; numeric
  // predicates go through the double-keyed ordered index, whose
  // candidate sets are supersets (see planner.h), so they keep the
  // residual pass.
  plan.exact = *op == PredicateOp::kEq && (value.is_string() || value.is_bool());
  return plan;
}

// Appends `child` to an n-ary node of `kind`, flattening same-kind
// children so `a and b and c` is one 3-way node.
void Absorb(IndexPlan& parent, IndexPlan child) {
  if (child.kind == parent.kind) {
    for (auto& grandchild : child.children) {
      parent.children.push_back(std::move(grandchild));
    }
    return;
  }
  parent.children.push_back(std::move(child));
}

std::optional<IndexPlan> PlanBool(const BoolExpr& expr) {
  auto lhs = PlanExpr(expr.lhs());
  auto rhs = PlanExpr(expr.rhs());
  if (expr.op() == BoolExpr::Op::kAnd) {
    // Any sargable conjunct prunes: matches of `a and b` are a subset of
    // the matches of each side.  A one-sided plan is no longer exact --
    // the dropped conjunct goes unchecked until the residual pass.
    if (!lhs.has_value()) {
      if (rhs.has_value()) rhs->exact = false;
      return rhs;
    }
    if (!rhs.has_value()) {
      lhs->exact = false;
      return lhs;
    }
    IndexPlan plan;
    plan.kind = IndexPlan::Kind::kAnd;
    // Exact sides are intersected.  Take exactness from the two sides,
    // not from the flattened children: an inexact `and` side may hide a
    // dropped conjunct behind children that are each exact.
    plan.exact = lhs->exact && rhs->exact;
    Absorb(plan, std::move(*lhs));
    Absorb(plan, std::move(*rhs));
    return plan;
  }
  // Or: a record may match through either side, so pruning is only
  // sound when both sides are sargable.
  if (!lhs.has_value() || !rhs.has_value()) return std::nullopt;
  IndexPlan plan;
  plan.kind = IndexPlan::Kind::kOr;
  plan.exact = lhs->exact && rhs->exact;
  Absorb(plan, std::move(*lhs));
  Absorb(plan, std::move(*rhs));
  return plan;
}

std::optional<IndexPlan> PlanExpr(const Expr& expr) {
  if (const auto* cmp = dynamic_cast<const CompareExpr*>(&expr)) {
    return PlanCompare(*cmp);
  }
  if (const auto* boolean = dynamic_cast<const BoolExpr*>(&expr)) {
    return PlanBool(*boolean);
  }
  if (const auto* defined = dynamic_cast<const DefinedExpr*>(&expr)) {
    IndexPlan plan;
    plan.kind = IndexPlan::Kind::kPredicate;
    plan.pred = SargablePredicate{defined->name(), PredicateOp::kDefined, {}};
    plan.exact = true;  // the presence index is the defined() semantics
    return plan;
  }
  // not(...), match(), contains(), injected calls, bare attributes and
  // literals: not index-answerable.
  return std::nullopt;
}

}  // namespace

std::shared_ptr<const IndexPlan> PlanQuery(const Expr& root) {
  auto plan = PlanExpr(root);
  if (!plan.has_value()) return nullptr;
  return std::make_shared<const IndexPlan>(std::move(*plan));
}

}  // namespace legion::query
