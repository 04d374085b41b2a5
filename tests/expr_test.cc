#include "expr/expr.h"

#include <gtest/gtest.h>

#include "expr/classify.h"
#include "expr/cnf.h"
#include "expr/type_infer.h"

namespace mvopt {
namespace {

ExprPtr Col(int t, int c) { return Expr::MakeColumn(t, c); }
ExprPtr Lit(int64_t v) { return Expr::MakeLiteral(Value::Int64(v)); }

TEST(ExprTest, StructuralEquality) {
  ExprPtr a = Expr::MakeCompare(CompareOp::kLt, Col(0, 1), Lit(5));
  ExprPtr b = Expr::MakeCompare(CompareOp::kLt, Col(0, 1), Lit(5));
  ExprPtr c = Expr::MakeCompare(CompareOp::kLt, Col(0, 1), Lit(6));
  EXPECT_TRUE(a->Equals(*b));
  EXPECT_FALSE(a->Equals(*c));
  EXPECT_EQ(a->Hash(), b->Hash());
}

TEST(ExprTest, ShapeFactorsOutColumns) {
  // (t0.c1 * t1.c2) > 100 -> "(($ * $) > 100)" with columns in order.
  ExprPtr e = Expr::MakeCompare(
      CompareOp::kGt, Expr::MakeArith(ArithOp::kMul, Col(0, 1), Col(1, 2)),
      Lit(100));
  ExprShape shape = ComputeShape(*e);
  EXPECT_EQ(shape.text, "(($ * $) > 100)");
  ASSERT_EQ(shape.columns.size(), 2u);
  EXPECT_EQ(shape.columns[0], (ColumnRefId{0, 1}));
  EXPECT_EQ(shape.columns[1], (ColumnRefId{1, 2}));
}

TEST(ExprTest, ShapeDistinguishesConstants) {
  ExprPtr a = Expr::MakeCompare(CompareOp::kGt, Col(0, 0), Lit(100));
  ExprPtr b = Expr::MakeCompare(CompareOp::kGt, Col(0, 0), Lit(200));
  EXPECT_NE(ComputeShape(*a).text, ComputeShape(*b).text);
}

TEST(ExprTest, RemapTableRefs) {
  ExprPtr e = Expr::MakeArith(ArithOp::kAdd, Col(0, 3), Col(1, 4));
  ExprPtr remapped = Expr::RemapTableRefs(e, {5, 7});
  std::vector<ColumnRefId> cols;
  remapped->CollectColumnRefs(&cols);
  ASSERT_EQ(cols.size(), 2u);
  EXPECT_EQ(cols[0], (ColumnRefId{5, 3}));
  EXPECT_EQ(cols[1], (ColumnRefId{7, 4}));
}

TEST(ExprTest, RemapTableRefsSharesUnchangedSubtrees) {
  // (t0.c1 < 5) OR (t2.c3 > 9) with slot 2 moved to 1: the left
  // comparison is untouched and shared, the right one is rebuilt around
  // its shared literal.
  ExprPtr left = Expr::MakeCompare(CompareOp::kLt, Col(0, 1), Lit(5));
  ExprPtr right = Expr::MakeCompare(CompareOp::kGt, Col(2, 3), Lit(9));
  ExprPtr e = Expr::MakeOr({left, right});
  ExprPtr remapped = Expr::RemapTableRefs(e, {0, -1, 1});
  ExprPtr expected = Expr::MakeOr(
      {Expr::MakeCompare(CompareOp::kLt, Col(0, 1), Lit(5)),
       Expr::MakeCompare(CompareOp::kGt, Col(1, 3), Lit(9))});
  EXPECT_TRUE(remapped->Equals(*expected));
  EXPECT_NE(remapped, e);
  EXPECT_EQ(remapped->child(0), left);
  EXPECT_NE(remapped->child(1), right);
  EXPECT_EQ(remapped->child(1)->child(1), right->child(1));
}

TEST(ExprTest, RemapTableRefsUnderAnIdentityMappingReturnsTheNode) {
  ExprPtr e = Expr::MakeAggregate(
      AggKind::kSum, Expr::MakeArith(ArithOp::kMul, Col(0, 1), Col(1, 2)));
  EXPECT_EQ(Expr::RemapTableRefs(e, {0, 1}), e);
  ExprPtr count = Expr::MakeAggregate(AggKind::kCountStar, nullptr);
  EXPECT_EQ(Expr::RemapTableRefs(count, {}), count);
}

TEST(ExprTest, MapColumnsUsesTheSuppliedColumnNodes) {
  // A caller keeping one node per (slot, column) gets the same node at
  // every occurrence, and the same tree as a fresh remap.
  ExprPtr e = Expr::MakeAnd(
      {Expr::MakeCompare(CompareOp::kEq, Col(1, 0), Col(2, 0)),
       Expr::MakeCompare(CompareOp::kGe, Col(1, 0), Lit(3))});
  const std::vector<int32_t> mapping = {-1, 0, 1};
  std::vector<ExprPtr> nodes(4);  // (slot, column) -> node, 2 x 2
  ExprPtr mapped = Expr::MapColumns(e, [&](const ExprPtr& column) {
    const ColumnRefId ref = column->column_ref();
    const int32_t slot = mapping[static_cast<size_t>(ref.table_ref)];
    ExprPtr& node = nodes[static_cast<size_t>(slot * 2 + ref.column)];
    if (node == nullptr) node = Expr::MakeColumn(slot, ref.column);
    return node;
  });
  EXPECT_TRUE(mapped->Equals(*Expr::RemapTableRefs(e, mapping)));
  EXPECT_EQ(mapped->child(0)->child(0), mapped->child(1)->child(0));
  EXPECT_EQ(mapped->child(0)->child(0), nodes[0]);
  EXPECT_EQ(mapped->child(1)->child(1), e->child(1)->child(1));
}

TEST(ExprTest, RewriteColumnsFailurePropagates) {
  ExprPtr e = Expr::MakeArith(ArithOp::kAdd, Col(0, 0), Col(0, 1));
  ExprPtr out = e->RewriteColumns([](ColumnRefId ref) -> ExprPtr {
    if (ref.column == 1) return nullptr;  // unmappable
    return Expr::MakeColumn(ref);
  });
  EXPECT_EQ(out, nullptr);
}

TEST(ExprTest, ContainsAggregate) {
  ExprPtr agg = Expr::MakeAggregate(AggKind::kSum, Col(0, 0));
  EXPECT_TRUE(agg->ContainsAggregate());
  EXPECT_FALSE(Col(0, 0)->ContainsAggregate());
  EXPECT_TRUE(
      Expr::MakeArith(ArithOp::kDiv, agg, Lit(2))->ContainsAggregate());
}

TEST(CnfTest, FlattensNestedAnds) {
  ExprPtr p = Expr::MakeAnd(
      {Expr::MakeAnd({Expr::MakeCompare(CompareOp::kEq, Col(0, 0), Lit(1)),
                      Expr::MakeCompare(CompareOp::kEq, Col(0, 1), Lit(2))}),
       Expr::MakeCompare(CompareOp::kEq, Col(0, 2), Lit(3))});
  EXPECT_EQ(ToCnf(p).size(), 3u);
}

TEST(CnfTest, DistributesOrOverAnd) {
  // a OR (b AND c) -> (a OR b) AND (a OR c)
  ExprPtr a = Expr::MakeCompare(CompareOp::kEq, Col(0, 0), Lit(1));
  ExprPtr b = Expr::MakeCompare(CompareOp::kEq, Col(0, 1), Lit(2));
  ExprPtr c = Expr::MakeCompare(CompareOp::kEq, Col(0, 2), Lit(3));
  auto conjuncts = ToCnf(Expr::MakeOr({a, Expr::MakeAnd({b, c})}));
  ASSERT_EQ(conjuncts.size(), 2u);
  EXPECT_EQ(conjuncts[0]->kind(), ExprKind::kOr);
  EXPECT_EQ(conjuncts[1]->kind(), ExprKind::kOr);
}

TEST(CnfTest, PushesNotThroughComparisonsAndDeMorgan) {
  // NOT (a < 5 AND b = 2)  ->  (a >= 5) OR (b <> 2): one conjunct (an OR).
  ExprPtr p = Expr::MakeNot(
      Expr::MakeAnd({Expr::MakeCompare(CompareOp::kLt, Col(0, 0), Lit(5)),
                     Expr::MakeCompare(CompareOp::kEq, Col(0, 1), Lit(2))}));
  auto conjuncts = ToCnf(p);
  ASSERT_EQ(conjuncts.size(), 1u);
  const Expr& disj = *conjuncts[0];
  ASSERT_EQ(disj.kind(), ExprKind::kOr);
  EXPECT_EQ(disj.child(0)->compare_op(), CompareOp::kGe);
  EXPECT_EQ(disj.child(1)->compare_op(), CompareOp::kNe);
}

TEST(CnfTest, DoubleNegationCancels) {
  ExprPtr p = Expr::MakeNot(
      Expr::MakeNot(Expr::MakeCompare(CompareOp::kLt, Col(0, 0), Lit(5))));
  auto conjuncts = ToCnf(p);
  ASSERT_EQ(conjuncts.size(), 1u);
  EXPECT_EQ(conjuncts[0]->compare_op(), CompareOp::kLt);
}

TEST(CnfTest, DeduplicatesConjuncts) {
  ExprPtr a = Expr::MakeCompare(CompareOp::kEq, Col(0, 0), Lit(1));
  auto conjuncts = ToCnf(Expr::MakeAnd({a, a}));
  EXPECT_EQ(conjuncts.size(), 1u);
}

TEST(ClassifyTest, SplitsIntoThreeComponents) {
  std::vector<ExprPtr> conjuncts = {
      // column equality
      Expr::MakeCompare(CompareOp::kEq, Col(0, 0), Col(1, 0)),
      // range
      Expr::MakeCompare(CompareOp::kLt, Col(0, 1), Lit(10)),
      // flipped range: 5 <= c  ->  c >= 5
      Expr::MakeCompare(CompareOp::kLe, Lit(5), Col(0, 2)),
      // residual (<> is not a range op)
      Expr::MakeCompare(CompareOp::kNe, Col(0, 3), Lit(0)),
      // residual (complex lhs)
      Expr::MakeCompare(CompareOp::kGt,
                        Expr::MakeArith(ArithOp::kMul, Col(0, 4), Col(0, 5)),
                        Lit(100)),
  };
  ClassifiedPredicates p = ClassifyConjuncts(conjuncts);
  ASSERT_EQ(p.equalities.size(), 1u);
  ASSERT_EQ(p.ranges.size(), 2u);
  EXPECT_EQ(p.ranges[1].op, CompareOp::kGe);
  EXPECT_EQ(p.ranges[1].column, (ColumnRefId{0, 2}));
  EXPECT_EQ(p.residual.size(), 2u);
}

TEST(ClassifyTest, EqualityToNullIsNotARange) {
  std::vector<ExprPtr> conjuncts = {Expr::MakeCompare(
      CompareOp::kEq, Col(0, 0), Expr::MakeLiteral(Value::Null()))};
  ClassifiedPredicates p = ClassifyConjuncts(conjuncts);
  EXPECT_TRUE(p.ranges.empty());
  EXPECT_EQ(p.residual.size(), 1u);
}

TEST(ClassifyTest, NullRejection) {
  ExprPtr cmp = Expr::MakeCompare(CompareOp::kGt, Col(0, 0), Lit(50));
  EXPECT_TRUE(IsNullRejectingOn(*cmp, ColumnRefId{0, 0}));
  EXPECT_FALSE(IsNullRejectingOn(*cmp, ColumnRefId{0, 1}));
  ExprPtr isnn = Expr::MakeIsNotNull(Col(0, 2));
  EXPECT_TRUE(IsNullRejectingOn(*isnn, ColumnRefId{0, 2}));
  // NOT(...) is conservatively not null-rejecting.
  ExprPtr neg = Expr::MakeNot(Expr::MakeLike(Col(0, 3), "x%"));
  EXPECT_FALSE(IsNullRejectingOn(*neg, ColumnRefId{0, 3}));
}

TEST(TypeInferTest, Basics) {
  auto coltype = [](ColumnRefId ref) {
    return ref.column == 0 ? ValueType::kInt64 : ValueType::kDouble;
  };
  EXPECT_EQ(InferType(*Col(0, 0), coltype), ValueType::kInt64);
  EXPECT_EQ(InferType(*Col(0, 1), coltype), ValueType::kDouble);
  EXPECT_EQ(InferType(*Expr::MakeArith(ArithOp::kMul, Col(0, 0), Col(0, 0)),
                      coltype),
            ValueType::kInt64);
  EXPECT_EQ(InferType(*Expr::MakeArith(ArithOp::kDiv, Col(0, 0), Col(0, 0)),
                      coltype),
            ValueType::kDouble);
  EXPECT_EQ(InferType(*Expr::MakeAggregate(AggKind::kCountStar, nullptr),
                      coltype),
            ValueType::kInt64);
  EXPECT_EQ(InferType(*Expr::MakeAggregate(AggKind::kAvg, Col(0, 0)),
                      coltype),
            ValueType::kDouble);
}

}  // namespace
}  // namespace mvopt
