#include "rewrite/range.h"

#include <gtest/gtest.h>

namespace mvopt {
namespace {

Value V(int64_t x) { return Value::Int64(x); }

TEST(RangeTest, UnconstrainedContainsEverything) {
  ValueRange all;
  ValueRange narrow;
  narrow.Apply(CompareOp::kGt, V(150));
  narrow.Apply(CompareOp::kLt, V(160));
  EXPECT_TRUE(all.Contains(narrow));
  EXPECT_FALSE(narrow.Contains(all));
  EXPECT_TRUE(all.IsUnconstrained());
}

TEST(RangeTest, PaperExample2Ranges) {
  // View: l_partkey > 150, o_custkey in (50, 500).
  // Query: l_partkey in (150, 160), o_custkey = 123.
  ValueRange view_pk;
  view_pk.Apply(CompareOp::kGt, V(150));
  ValueRange query_pk;
  query_pk.Apply(CompareOp::kGt, V(150));
  query_pk.Apply(CompareOp::kLt, V(160));
  EXPECT_TRUE(view_pk.Contains(query_pk));
  EXPECT_TRUE(query_pk.SameLowerBound(view_pk));
  EXPECT_FALSE(query_pk.SameUpperBound(view_pk));

  ValueRange view_ck;
  view_ck.Apply(CompareOp::kGt, V(50));
  view_ck.Apply(CompareOp::kLt, V(500));
  ValueRange query_ck;
  query_ck.Apply(CompareOp::kEq, V(123));
  EXPECT_TRUE(view_ck.Contains(query_ck));
  EXPECT_TRUE(query_ck.IsPoint());
}

TEST(RangeTest, EqualityTightensBothBounds) {
  ValueRange r;
  r.Apply(CompareOp::kEq, V(5));
  EXPECT_TRUE(r.IsPoint());
  EXPECT_FALSE(r.IsEmpty());
  ValueRange same;
  same.Apply(CompareOp::kGe, V(5));
  same.Apply(CompareOp::kLe, V(5));
  EXPECT_TRUE(r.Contains(same));
  EXPECT_TRUE(same.Contains(r));
}

TEST(RangeTest, ContradictionIsEmpty) {
  ValueRange r;
  r.Apply(CompareOp::kGt, V(10));
  r.Apply(CompareOp::kLt, V(5));
  EXPECT_TRUE(r.IsEmpty());
  // Touching open bounds are empty too: x > 5 AND x < 5.
  ValueRange touch;
  touch.Apply(CompareOp::kGt, V(5));
  touch.Apply(CompareOp::kLt, V(5));
  EXPECT_TRUE(touch.IsEmpty());
  // x >= 5 AND x <= 5 is the point 5, not empty.
  ValueRange point;
  point.Apply(CompareOp::kGe, V(5));
  point.Apply(CompareOp::kLe, V(5));
  EXPECT_FALSE(point.IsEmpty());
}

TEST(RangeTest, OpenVsClosedContainment) {
  ValueRange open;
  open.Apply(CompareOp::kGt, V(10));  // (10, inf)
  ValueRange closed;
  closed.Apply(CompareOp::kGe, V(10));  // [10, inf)
  EXPECT_TRUE(closed.Contains(open));
  EXPECT_FALSE(open.Contains(closed));
}

TEST(RangeTest, TighteningKeepsTightest) {
  ValueRange r;
  r.Apply(CompareOp::kGt, V(5));
  r.Apply(CompareOp::kGt, V(3));  // looser, ignored
  r.Apply(CompareOp::kGe, V(5));  // looser than >5 at same value, ignored
  ValueRange expect;
  expect.Apply(CompareOp::kGt, V(5));
  EXPECT_TRUE(r.Contains(expect));
  EXPECT_TRUE(expect.Contains(r));
}

TEST(RangeMapTest, GroupsByEquivalenceClass) {
  // Columns (0,0) and (1,0) are equivalent; predicates on both fold into
  // one range for the class.
  EquivalenceClasses ec(std::vector<int32_t>{1, 1});
  ec.AddEquality(ColumnRefId{0, 0}, ColumnRefId{1, 0});
  std::vector<RangePred> preds = {
      {ColumnRefId{0, 0}, CompareOp::kGt, V(10)},
      {ColumnRefId{1, 0}, CompareOp::kLt, V(20)},
  };
  RangeMap map = RangeMap::Build(preds, ec);
  int cls = ec.ClassOf(ColumnRefId{0, 0});
  ASSERT_TRUE(map.HasConstraint(cls));
  ValueRange r = map.Get(cls);
  EXPECT_FALSE(r.lo.is_infinite);
  EXPECT_FALSE(r.hi.is_infinite);
  EXPECT_EQ(r.lo.value, V(10));
  EXPECT_EQ(r.hi.value, V(20));
}

TEST(RangeMapTest, DoubleAndDateBounds) {
  EquivalenceClasses ec(std::vector<int32_t>{2});
  std::vector<RangePred> preds = {
      {ColumnRefId{0, 0}, CompareOp::kGe, Value::Double(1.5)},
      {ColumnRefId{0, 1}, CompareOp::kLt, Value::Date(9000)},
  };
  RangeMap map = RangeMap::Build(preds, ec);
  EXPECT_TRUE(map.HasConstraint(ec.ClassOf(ColumnRefId{0, 0})));
  ValueRange d = map.Get(ec.ClassOf(ColumnRefId{0, 1}));
  EXPECT_TRUE(d.lo.is_infinite);
  EXPECT_EQ(d.hi.value, Value::Date(9000));
}

}  // namespace
}  // namespace mvopt
