#include "expr/classify.h"

namespace mvopt {

namespace {

bool IsRangeOp(CompareOp op) { return op != CompareOp::kNe; }

}  // namespace

ConjunctKind ClassifyConjunct(const ExprPtr& c, ClassifiedPredicates* out) {
  if (c->kind() == ExprKind::kComparison) {
    const Expr& lhs = *c->child(0);
    const Expr& rhs = *c->child(1);
    // Column = column.
    if (c->compare_op() == CompareOp::kEq &&
        lhs.kind() == ExprKind::kColumnRef &&
        rhs.kind() == ExprKind::kColumnRef) {
      out->equalities.push_back({lhs.column_ref(), rhs.column_ref()});
      return ConjunctKind::kEquality;
    }
    // Column op constant (either orientation).
    if (IsRangeOp(c->compare_op())) {
      if (lhs.kind() == ExprKind::kColumnRef &&
          rhs.kind() == ExprKind::kLiteral && !rhs.literal().is_null()) {
        out->ranges.push_back(
            {lhs.column_ref(), c->compare_op(), rhs.literal()});
        return ConjunctKind::kRange;
      }
      if (rhs.kind() == ExprKind::kColumnRef &&
          lhs.kind() == ExprKind::kLiteral && !lhs.literal().is_null()) {
        out->ranges.push_back(
            {rhs.column_ref(), FlipCompare(c->compare_op()), lhs.literal()});
        return ConjunctKind::kRange;
      }
    }
  }
  out->residual.push_back(c);
  return ConjunctKind::kResidual;
}

ClassifiedPredicates ClassifyConjuncts(
    const std::vector<ExprPtr>& conjuncts) {
  ClassifiedPredicates out;
  for (const auto& c : conjuncts) ClassifyConjunct(c, &out);
  return out;
}

bool IsNullRejectingOn(const Expr& conjunct, ColumnRefId column) {
  switch (conjunct.kind()) {
    case ExprKind::kIsNotNull:
      return conjunct.child(0)->kind() == ExprKind::kColumnRef &&
             conjunct.child(0)->column_ref() == column;
    case ExprKind::kComparison: {
      // Any comparison evaluating to UNKNOWN on null rejects the row; it
      // null-rejects `column` if the column appears on either side and the
      // comparison is not against another expression that could hide it.
      std::vector<ColumnRefId> cols;
      conjunct.CollectColumnRefs(&cols);
      for (ColumnRefId c : cols) {
        if (c == column) return true;
      }
      return false;
    }
    case ExprKind::kLike: {
      std::vector<ColumnRefId> cols;
      conjunct.CollectColumnRefs(&cols);
      for (ColumnRefId c : cols) {
        if (c == column) return true;
      }
      return false;
    }
    default:
      // OR / NOT / other shapes: be conservative.
      return false;
  }
}

}  // namespace mvopt
