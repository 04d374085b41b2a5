#include "expr/expr.h"

#include <cassert>

#include "common/hash_util.h"

namespace mvopt {

CompareOp FlipCompare(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return CompareOp::kEq;
    case CompareOp::kNe:
      return CompareOp::kNe;
    case CompareOp::kLt:
      return CompareOp::kGt;
    case CompareOp::kLe:
      return CompareOp::kGe;
    case CompareOp::kGt:
      return CompareOp::kLt;
    case CompareOp::kGe:
      return CompareOp::kLe;
  }
  return op;
}

const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
    case CompareOp::kNe:
      return "<>";
  }
  return "?";
}

const char* ArithOpName(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd:
      return "+";
    case ArithOp::kSub:
      return "-";
    case ArithOp::kMul:
      return "*";
    case ArithOp::kDiv:
      return "/";
  }
  return "?";
}

const char* AggKindName(AggKind kind) {
  switch (kind) {
    case AggKind::kCountStar:
      return "count(*)";
    case AggKind::kSum:
      return "sum";
    case AggKind::kMin:
      return "min";
    case AggKind::kMax:
      return "max";
    case AggKind::kAvg:
      return "avg";
  }
  return "?";
}

namespace {
std::shared_ptr<Expr> NewExpr() {
  struct Maker : Expr {};
  // Expr's constructor is private; use a derived accessor-free trick via
  // placement of a friend-like local. Simpler: allocate through a local
  // subclass that exposes the default constructor.
  return std::make_shared<Maker>();
}
}  // namespace

ExprPtr Expr::MakeColumn(ColumnRefId ref) {
  auto e = NewExpr();
  e->kind_ = ExprKind::kColumnRef;
  e->column_ref_ = ref;
  return e;
}

ExprPtr Expr::MakeLiteral(Value v) {
  auto e = NewExpr();
  e->kind_ = ExprKind::kLiteral;
  e->literal_ = std::move(v);
  return e;
}

ExprPtr Expr::MakeArith(ArithOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = NewExpr();
  e->kind_ = ExprKind::kArithmetic;
  e->arith_op_ = op;
  e->children_ = {std::move(lhs), std::move(rhs)};
  return e;
}

ExprPtr Expr::MakeCompare(CompareOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = NewExpr();
  e->kind_ = ExprKind::kComparison;
  e->compare_op_ = op;
  e->children_ = {std::move(lhs), std::move(rhs)};
  return e;
}

ExprPtr Expr::MakeAnd(std::vector<ExprPtr> children) {
  assert(!children.empty());
  if (children.size() == 1) return children[0];
  auto e = NewExpr();
  e->kind_ = ExprKind::kAnd;
  e->children_ = std::move(children);
  return e;
}

ExprPtr Expr::MakeOr(std::vector<ExprPtr> children) {
  assert(!children.empty());
  if (children.size() == 1) return children[0];
  auto e = NewExpr();
  e->kind_ = ExprKind::kOr;
  e->children_ = std::move(children);
  return e;
}

ExprPtr Expr::MakeNot(ExprPtr child) {
  auto e = NewExpr();
  e->kind_ = ExprKind::kNot;
  e->children_ = {std::move(child)};
  return e;
}

ExprPtr Expr::MakeLike(ExprPtr input, std::string pattern) {
  auto e = NewExpr();
  e->kind_ = ExprKind::kLike;
  e->like_pattern_ = std::move(pattern);
  e->children_ = {std::move(input)};
  return e;
}

ExprPtr Expr::MakeIsNotNull(ExprPtr child) {
  auto e = NewExpr();
  e->kind_ = ExprKind::kIsNotNull;
  e->children_ = {std::move(child)};
  return e;
}

ExprPtr Expr::MakeAggregate(AggKind kind, ExprPtr arg) {
  assert((kind == AggKind::kCountStar) == (arg == nullptr));
  auto e = NewExpr();
  e->kind_ = ExprKind::kAggregate;
  e->agg_kind_ = kind;
  if (arg != nullptr) e->children_ = {std::move(arg)};
  return e;
}

bool Expr::ContainsAggregate() const {
  if (kind_ == ExprKind::kAggregate) return true;
  for (const auto& c : children_) {
    if (c->ContainsAggregate()) return true;
  }
  return false;
}

void Expr::CollectColumnRefs(std::vector<ColumnRefId>* out) const {
  if (kind_ == ExprKind::kColumnRef) {
    out->push_back(column_ref_);
    return;
  }
  for (const auto& c : children_) c->CollectColumnRefs(out);
}

bool Expr::Equals(const Expr& other) const {
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case ExprKind::kColumnRef:
      if (column_ref_ != other.column_ref_) return false;
      break;
    case ExprKind::kLiteral:
      if (literal_.type() != other.literal_.type() ||
          literal_ != other.literal_) {
        return false;
      }
      break;
    case ExprKind::kArithmetic:
      if (arith_op_ != other.arith_op_) return false;
      break;
    case ExprKind::kComparison:
      if (compare_op_ != other.compare_op_) return false;
      break;
    case ExprKind::kLike:
      if (like_pattern_ != other.like_pattern_) return false;
      break;
    case ExprKind::kAggregate:
      if (agg_kind_ != other.agg_kind_) return false;
      break;
    default:
      break;
  }
  if (children_.size() != other.children_.size()) return false;
  for (size_t i = 0; i < children_.size(); ++i) {
    if (!children_[i]->Equals(*other.children_[i])) return false;
  }
  return true;
}

size_t Expr::Hash() const {
  size_t h = static_cast<size_t>(kind_) * 0x1000193u;
  switch (kind_) {
    case ExprKind::kColumnRef:
      HashCombineRaw(&h, ColumnRefIdHash()(column_ref_));
      break;
    case ExprKind::kLiteral:
      HashCombineRaw(&h, literal_.Hash());
      break;
    case ExprKind::kArithmetic:
      HashCombine(&h, static_cast<int>(arith_op_));
      break;
    case ExprKind::kComparison:
      HashCombine(&h, static_cast<int>(compare_op_));
      break;
    case ExprKind::kLike:
      HashCombine(&h, like_pattern_);
      break;
    case ExprKind::kAggregate:
      HashCombine(&h, static_cast<int>(agg_kind_));
      break;
    default:
      break;
  }
  for (const auto& c : children_) HashCombineRaw(&h, c->Hash());
  return h;
}

ExprPtr Expr::WithChildren(std::vector<ExprPtr> children) const {
  switch (kind_) {
    case ExprKind::kArithmetic:
      return MakeArith(arith_op_, children[0], children[1]);
    case ExprKind::kComparison:
      return MakeCompare(compare_op_, children[0], children[1]);
    case ExprKind::kAnd:
      return MakeAnd(std::move(children));
    case ExprKind::kOr:
      return MakeOr(std::move(children));
    case ExprKind::kNot:
      return MakeNot(children[0]);
    case ExprKind::kLike:
      return MakeLike(children[0], like_pattern_);
    case ExprKind::kIsNotNull:
      return MakeIsNotNull(children[0]);
    case ExprKind::kAggregate:
      return MakeAggregate(agg_kind_,
                           children.empty() ? nullptr : children[0]);
    case ExprKind::kLiteral:
      return MakeLiteral(literal_);
    case ExprKind::kColumnRef:
      return MakeColumn(column_ref_);
  }
  return nullptr;
}

ExprPtr Expr::RemapTableRefs(const ExprPtr& expr,
                             const std::vector<int32_t>& mapping) {
  return MapColumns(expr, [&mapping](const ExprPtr& column) -> ExprPtr {
    const ColumnRefId ref = column->column_ref();
    assert(ref.table_ref >= 0 &&
           ref.table_ref < static_cast<int32_t>(mapping.size()));
    const int32_t mapped = mapping[ref.table_ref];
    assert(mapped >= 0 && "table ref not covered by mapping");
    if (mapped == ref.table_ref) return column;
    return MakeColumn(ColumnRefId{mapped, ref.column});
  });
}

namespace {

void Render(const Expr& e,
            const std::function<std::string(ColumnRefId)>* name_fn,
            bool shape_mode, std::string* out,
            std::vector<ColumnRefId>* cols) {
  switch (e.kind()) {
    case ExprKind::kColumnRef:
      if (shape_mode) {
        *out += "$";
        cols->push_back(e.column_ref());
      } else if (name_fn != nullptr) {
        *out += (*name_fn)(e.column_ref());
      } else {
        *out += "t" + std::to_string(e.column_ref().table_ref) + ".c" +
                std::to_string(e.column_ref().column);
      }
      return;
    case ExprKind::kLiteral:
      *out += e.literal().ToString();
      return;
    case ExprKind::kArithmetic:
      *out += "(";
      Render(*e.child(0), name_fn, shape_mode, out, cols);
      *out += " ";
      *out += ArithOpName(e.arith_op());
      *out += " ";
      Render(*e.child(1), name_fn, shape_mode, out, cols);
      *out += ")";
      return;
    case ExprKind::kComparison:
      *out += "(";
      Render(*e.child(0), name_fn, shape_mode, out, cols);
      *out += " ";
      *out += CompareOpName(e.compare_op());
      *out += " ";
      Render(*e.child(1), name_fn, shape_mode, out, cols);
      *out += ")";
      return;
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      const char* sep = e.kind() == ExprKind::kAnd ? " AND " : " OR ";
      *out += "(";
      for (size_t i = 0; i < e.num_children(); ++i) {
        if (i > 0) *out += sep;
        Render(*e.child(i), name_fn, shape_mode, out, cols);
      }
      *out += ")";
      return;
    }
    case ExprKind::kNot:
      *out += "NOT ";
      Render(*e.child(0), name_fn, shape_mode, out, cols);
      return;
    case ExprKind::kLike:
      *out += "(";
      Render(*e.child(0), name_fn, shape_mode, out, cols);
      *out += " LIKE '" + e.like_pattern() + "')";
      return;
    case ExprKind::kIsNotNull:
      *out += "(";
      Render(*e.child(0), name_fn, shape_mode, out, cols);
      *out += " IS NOT NULL)";
      return;
    case ExprKind::kAggregate:
      if (e.agg_kind() == AggKind::kCountStar) {
        *out += "count(*)";
        return;
      }
      *out += AggKindName(e.agg_kind());
      *out += "(";
      Render(*e.child(0), name_fn, shape_mode, out, cols);
      *out += ")";
      return;
  }
}

}  // namespace

std::string Expr::ToString(
    const std::function<std::string(ColumnRefId)>* name_fn) const {
  std::string out;
  std::vector<ColumnRefId> cols;
  Render(*this, name_fn, /*shape_mode=*/false, &out, &cols);
  return out;
}

ExprShape ComputeShape(const Expr& expr) {
  ExprShape shape;
  Render(expr, nullptr, /*shape_mode=*/true, &shape.text, &shape.columns);
  return shape;
}

}  // namespace mvopt
