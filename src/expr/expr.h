// Scalar expression trees.
//
// Expressions reference columns positionally: a ColumnRefId names a table
// *reference* (an index into the enclosing SPJG expression's FROM list, so
// self-joins are unambiguous) plus a column ordinal within that table.
// Expression nodes are immutable and shared via ExprPtr.
//
// The module also provides the textual "shape" representation the paper's
// shallow matcher uses (§3.1.2): the expression rendered to text with
// column references factored out, plus the ordered list of references.

#ifndef MVOPT_EXPR_EXPR_H_
#define MVOPT_EXPR_EXPR_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/value.h"

namespace mvopt {

/// A column reference: table reference slot + column ordinal.
struct ColumnRefId {
  int32_t table_ref = -1;
  ColumnOrdinal column = -1;

  bool operator==(const ColumnRefId& o) const {
    return table_ref == o.table_ref && column == o.column;
  }
  bool operator!=(const ColumnRefId& o) const { return !(*this == o); }
  bool operator<(const ColumnRefId& o) const {
    if (table_ref != o.table_ref) return table_ref < o.table_ref;
    return column < o.column;
  }
};

struct ColumnRefIdHash {
  size_t operator()(const ColumnRefId& c) const {
    return static_cast<size_t>(c.table_ref) * 1315423911u +
           static_cast<size_t>(c.column);
  }
};

enum class ExprKind {
  kColumnRef,
  kLiteral,
  kArithmetic,  // + - * /
  kComparison,  // = < <= > >= <>
  kAnd,
  kOr,
  kNot,
  kLike,       // column-bearing expr LIKE pattern-literal
  kIsNotNull,  // null-rejecting unary predicate
  kAggregate,  // appears only at the top of output expressions
};

enum class ArithOp { kAdd, kSub, kMul, kDiv };

enum class CompareOp { kEq, kLt, kLe, kGt, kGe, kNe };

/// Mirror image: a op b  ==  b Flip(op) a.
CompareOp FlipCompare(CompareOp op);
const char* CompareOpName(CompareOp op);
const char* ArithOpName(ArithOp op);

enum class AggKind { kCountStar, kSum, kMin, kMax, kAvg };
const char* AggKindName(AggKind kind);

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// Immutable expression node. Construct through the static factories.
class Expr {
 public:
  static ExprPtr MakeColumn(ColumnRefId ref);
  static ExprPtr MakeColumn(int32_t table_ref, ColumnOrdinal column) {
    return MakeColumn(ColumnRefId{table_ref, column});
  }
  static ExprPtr MakeLiteral(Value v);
  static ExprPtr MakeArith(ArithOp op, ExprPtr lhs, ExprPtr rhs);
  static ExprPtr MakeCompare(CompareOp op, ExprPtr lhs, ExprPtr rhs);
  static ExprPtr MakeAnd(std::vector<ExprPtr> children);
  static ExprPtr MakeOr(std::vector<ExprPtr> children);
  static ExprPtr MakeNot(ExprPtr child);
  static ExprPtr MakeLike(ExprPtr input, std::string pattern);
  static ExprPtr MakeIsNotNull(ExprPtr child);
  /// COUNT(*): arg == nullptr. SUM/MIN/MAX/AVG take an argument.
  static ExprPtr MakeAggregate(AggKind kind, ExprPtr arg);

  ExprKind kind() const { return kind_; }
  bool is(ExprKind k) const { return kind_ == k; }

  // Payload accessors; preconditions follow the kind.
  ColumnRefId column_ref() const { return column_ref_; }
  const Value& literal() const { return literal_; }
  ArithOp arith_op() const { return arith_op_; }
  CompareOp compare_op() const { return compare_op_; }
  AggKind agg_kind() const { return agg_kind_; }
  const std::string& like_pattern() const { return like_pattern_; }

  const std::vector<ExprPtr>& children() const { return children_; }
  const ExprPtr& child(size_t i) const { return children_[i]; }
  size_t num_children() const { return children_.size(); }

  /// True if any node in the tree is an aggregate.
  bool ContainsAggregate() const;

  /// Appends every column reference, in left-to-right textual order
  /// (aggregate arguments included).
  void CollectColumnRefs(std::vector<ColumnRefId>* out) const;

  /// Structural equality (exact: same kinds, ops, literals, column refs).
  bool Equals(const Expr& other) const;
  size_t Hash() const;

  /// `expr` with each column's table_ref replaced by
  /// mapping[table_ref]. Every referenced slot must be mapped (>= 0).
  /// Subtrees the mapping leaves unchanged are shared (MapColumns).
  static ExprPtr RemapTableRefs(const ExprPtr& expr,
                                const std::vector<int32_t>& mapping);

  /// `expr` with each column-reference node `c` replaced by `fn(c)`.
  /// Nodes are immutable, so a subtree whose column nodes all come back
  /// unchanged is shared rather than copied, and `expr` itself comes
  /// back when nothing changes.
  template <typename Fn>
  static ExprPtr MapColumns(const ExprPtr& expr, Fn&& fn);

  /// Rebuilds the tree replacing each column ref through `fn`; `fn` may
  /// return a full expression (used when routing refs to view outputs).
  template <typename Fn>
  ExprPtr RewriteColumns(Fn&& fn) const;

  /// Renders to SQL-ish text. `name_fn(ref)` supplies the printed name of
  /// a column reference; pass nullptr to print as tN.cM.
  std::string ToString(
      const std::function<std::string(ColumnRefId)>* name_fn = nullptr) const;

 protected:
  Expr() = default;

 private:
  /// A node like this one (same kind and payload) over `children`.
  ExprPtr WithChildren(std::vector<ExprPtr> children) const;

  ExprKind kind_ = ExprKind::kLiteral;
  ColumnRefId column_ref_;
  Value literal_;
  ArithOp arith_op_ = ArithOp::kAdd;
  CompareOp compare_op_ = CompareOp::kEq;
  AggKind agg_kind_ = AggKind::kCountStar;
  std::string like_pattern_;
  std::vector<ExprPtr> children_;
};

/// The paper's shallow expression representation: the textual version of
/// the expression with column references omitted (rendered as '$'), plus
/// the ordered list of references. Two expressions "match" when the texts
/// are equal and positionally corresponding columns are equivalent.
struct ExprShape {
  std::string text;
  std::vector<ColumnRefId> columns;

  bool operator==(const ExprShape& o) const {
    return text == o.text && columns == o.columns;
  }
};

ExprShape ComputeShape(const Expr& expr);

template <typename Fn>
ExprPtr Expr::MapColumns(const ExprPtr& expr, Fn&& fn) {
  if (expr->kind_ == ExprKind::kColumnRef) return fn(expr);
  const std::vector<ExprPtr>& children = expr->children_;
  std::vector<ExprPtr> mapped;  // filled from the first changed child on
  for (size_t i = 0; i < children.size(); ++i) {
    ExprPtr c = MapColumns(children[i], fn);
    if (mapped.empty()) {
      if (c == children[i]) continue;
      mapped.reserve(children.size());
      mapped.assign(children.begin(),
                    children.begin() + static_cast<std::ptrdiff_t>(i));
    }
    mapped.push_back(std::move(c));
  }
  if (mapped.empty()) return expr;
  return expr->WithChildren(std::move(mapped));
}

template <typename Fn>
ExprPtr Expr::RewriteColumns(Fn&& fn) const {
  if (kind_ == ExprKind::kColumnRef) return fn(column_ref_);
  if (kind_ == ExprKind::kLiteral) return MakeLiteral(literal_);
  std::vector<ExprPtr> new_children;
  new_children.reserve(children_.size());
  for (const auto& c : children_) {
    ExprPtr nc = c->RewriteColumns(fn);
    if (nc == nullptr) return nullptr;
    new_children.push_back(std::move(nc));
  }
  return WithChildren(std::move(new_children));
}

}  // namespace mvopt

#endif  // MVOPT_EXPR_EXPR_H_
