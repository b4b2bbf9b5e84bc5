// AST and evaluation for the Collection query language.
//
// Expressions evaluate against a single attribute record.  Evaluation is
// const (regexes over literal patterns are compiled at parse time), so
// one compiled query can be shared and cached.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <regex>
#include <string>
#include <vector>

#include "base/attributes.h"
#include "base/result.h"

namespace legion::query {

// User-injected derived-attribute functions (the "function injection"
// extension of paper section 3.2): name -> fn(record, args) -> value.
class FunctionRegistry {
 public:
  using Fn = std::function<AttrValue(const AttributeDatabase& record,
                                     const std::vector<AttrValue>& args)>;

  void Register(const std::string& name, Fn fn) { fns_[name] = std::move(fn); }
  bool Has(const std::string& name) const { return fns_.count(name) != 0; }
  const Fn* Find(const std::string& name) const {
    auto it = fns_.find(name);
    return it == fns_.end() ? nullptr : &it->second;
  }
  std::size_t size() const { return fns_.size(); }

  template <typename Visitor>
  void ForEach(Visitor&& visit) const {
    for (const auto& [name, fn] : fns_) visit(name, fn);
  }

 private:
  std::map<std::string, Fn> fns_;
};

struct EvalContext {
  const AttributeDatabase& record;
  const FunctionRegistry* functions = nullptr;  // optional injection
};

class Expr {
 public:
  virtual ~Expr() = default;
  // Evaluates to a value; attribute references to missing attributes
  // yield null (comparisons against null are false, not errors).
  virtual Result<AttrValue> Eval(const EvalContext& ctx) const = 0;
  virtual std::string ToString() const = 0;
};

using ExprPtr = std::unique_ptr<Expr>;

class LiteralExpr final : public Expr {
 public:
  explicit LiteralExpr(AttrValue value) : value_(std::move(value)) {}
  Result<AttrValue> Eval(const EvalContext&) const override { return value_; }
  std::string ToString() const override { return value_.ToString(); }
  const AttrValue& value() const { return value_; }

 private:
  AttrValue value_;
};

class AttrRefExpr final : public Expr {
 public:
  explicit AttrRefExpr(std::string name) : name_(std::move(name)) {}
  Result<AttrValue> Eval(const EvalContext& ctx) const override {
    const AttrValue* v = ctx.record.Get(name_);
    return v != nullptr ? *v : AttrValue();
  }
  std::string ToString() const override { return "$" + name_; }
  const std::string& name() const { return name_; }

 private:
  std::string name_;
};

class NotExpr final : public Expr {
 public:
  explicit NotExpr(ExprPtr operand) : operand_(std::move(operand)) {}
  Result<AttrValue> Eval(const EvalContext& ctx) const override;
  std::string ToString() const override {
    return "not (" + operand_->ToString() + ")";
  }
  const Expr& operand() const { return *operand_; }

 private:
  ExprPtr operand_;
};

class BoolExpr final : public Expr {
 public:
  enum class Op { kAnd, kOr };
  BoolExpr(Op op, ExprPtr lhs, ExprPtr rhs)
      : op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}
  Result<AttrValue> Eval(const EvalContext& ctx) const override;
  std::string ToString() const override;
  Op op() const { return op_; }
  const Expr& lhs() const { return *lhs_; }
  const Expr& rhs() const { return *rhs_; }

 private:
  Op op_;
  ExprPtr lhs_, rhs_;
};

class CompareExpr final : public Expr {
 public:
  enum class Op { kEq, kNe, kLt, kLe, kGt, kGe };
  CompareExpr(Op op, ExprPtr lhs, ExprPtr rhs)
      : op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}
  Result<AttrValue> Eval(const EvalContext& ctx) const override;
  std::string ToString() const override;
  Op op() const { return op_; }
  const Expr& lhs() const { return *lhs_; }
  const Expr& rhs() const { return *rhs_; }

 private:
  Op op_;
  ExprPtr lhs_, rhs_;
};

// match(pattern, subject): true iff the regular expression occurs in the
// subject string (regexp() search semantics, per the paper's footnote the
// first argument is the pattern; when the first argument is an attribute
// reference and the second a literal -- the paper's own first example --
// the literal is taken as the pattern).
class MatchExpr final : public Expr {
 public:
  MatchExpr(ExprPtr pattern, ExprPtr subject);
  Result<AttrValue> Eval(const EvalContext& ctx) const override;
  std::string ToString() const override;

 private:
  ExprPtr pattern_;
  ExprPtr subject_;
  std::optional<std::regex> compiled_;  // literal patterns precompile
};

// defined($attr): true iff the record carries the attribute (non-null).
class DefinedExpr final : public Expr {
 public:
  explicit DefinedExpr(std::string name) : name_(std::move(name)) {}
  Result<AttrValue> Eval(const EvalContext& ctx) const override {
    const AttrValue* v = ctx.record.Get(name_);
    return AttrValue(v != nullptr && !v->is_null());
  }
  std::string ToString() const override { return "defined($" + name_ + ")"; }
  const std::string& name() const { return name_; }

 private:
  std::string name_;
};

// contains($listattr, value): membership test for list attributes.
class ContainsExpr final : public Expr {
 public:
  ContainsExpr(ExprPtr list, ExprPtr needle)
      : list_(std::move(list)), needle_(std::move(needle)) {}
  Result<AttrValue> Eval(const EvalContext& ctx) const override;
  std::string ToString() const override {
    return "contains(" + list_->ToString() + ", " + needle_->ToString() + ")";
  }

 private:
  ExprPtr list_, needle_;
};

// An injected function call resolved through the FunctionRegistry.
class InjectedCallExpr final : public Expr {
 public:
  InjectedCallExpr(std::string name, std::vector<ExprPtr> args)
      : name_(std::move(name)), args_(std::move(args)) {}
  Result<AttrValue> Eval(const EvalContext& ctx) const override;
  std::string ToString() const override;

 private:
  std::string name_;
  std::vector<ExprPtr> args_;
};

}  // namespace legion::query
