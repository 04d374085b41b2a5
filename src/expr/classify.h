// Splits a CNF conjunct list into the three components of §3.1.2:
//
//   PE — column-equality predicates (Ti.Cp = Tj.Cq),
//   PR — range predicates (Ti.Cp op c, op in {<, <=, =, >=, >}),
//   PU — the residual (everything else).
//
// Constant-on-the-left comparisons are flipped; <> goes to the residual.

#ifndef MVOPT_EXPR_CLASSIFY_H_
#define MVOPT_EXPR_CLASSIFY_H_

#include <vector>

#include "expr/expr.h"

namespace mvopt {

/// One (Ti.Cp = Tj.Cq) conjunct.
struct ColumnEqualityPred {
  ColumnRefId lhs;
  ColumnRefId rhs;
};

/// One (Ti.Cp op c) conjunct, normalized so the column is on the left.
struct RangePred {
  ColumnRefId column;
  CompareOp op = CompareOp::kEq;  // kEq, kLt, kLe, kGt, kGe
  Value bound;
};

/// The PE / PR / PU decomposition of a predicate.
struct ClassifiedPredicates {
  std::vector<ColumnEqualityPred> equalities;
  std::vector<RangePred> ranges;
  std::vector<ExprPtr> residual;
};

/// The list of ClassifiedPredicates a conjunct belongs to.
enum class ConjunctKind { kEquality, kRange, kResidual };

/// Appends `conjunct` to its list in `out` and returns which list.
ConjunctKind ClassifyConjunct(const ExprPtr& conjunct,
                              ClassifiedPredicates* out);

/// Every conjunct through ClassifyConjunct, in order.
ClassifiedPredicates ClassifyConjuncts(const std::vector<ExprPtr>& conjuncts);

/// True if `conjunct` is a null-rejecting predicate on exactly the given
/// column: a range or equality or IS NOT NULL mentioning it (used by the
/// §3.2 nullable-foreign-key relaxation).
bool IsNullRejectingOn(const Expr& conjunct, ColumnRefId column);

}  // namespace mvopt

#endif  // MVOPT_EXPR_CLASSIFY_H_
