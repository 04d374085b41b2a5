#include "optimizer/cardinality.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "bench/harness.h"
#include "optimizer/optimizer.h"
#include "tests/cardinality_oracle.h"
#include "tpch/schema.h"

namespace mvopt {
namespace {

class CardinalityTest : public ::testing::Test {
 protected:
  CardinalityTest()
      : schema_(tpch::BuildSchema(&catalog_, 0.5)), estimator_(&catalog_) {}

  static ExprPtr Eq(ExprPtr a, ExprPtr b) {
    return Expr::MakeCompare(CompareOp::kEq, std::move(a), std::move(b));
  }

  Catalog catalog_;
  tpch::Schema schema_;
  CardinalityEstimator estimator_;
};

TEST_F(CardinalityTest, BaseTableCardinality) {
  SpjgBuilder b(&catalog_);
  int l = b.AddTable("lineitem");
  b.Output(b.Col(l, "l_orderkey"));
  EXPECT_DOUBLE_EQ(estimator_.EstimateSpj(b.Build()),
                   static_cast<double>(
                       catalog_.table(schema_.lineitem).row_count()));
}

TEST_F(CardinalityTest, FkJoinPreservesFactTableCardinality) {
  // |lineitem ⋈ orders| ≈ |lineitem| under containment.
  SpjgBuilder b(&catalog_);
  int l = b.AddTable("lineitem");
  int o = b.AddTable("orders");
  b.Where(Eq(b.Col(l, "l_orderkey"), b.Col(o, "o_orderkey")));
  b.Output(b.Col(l, "l_orderkey"));
  double est = estimator_.EstimateSpj(b.Build());
  double lineitems =
      static_cast<double>(catalog_.table(schema_.lineitem).row_count());
  EXPECT_NEAR(est / lineitems, 1.0, 0.25);
}

TEST_F(CardinalityTest, TransitiveJoinChainSingleSelectivityPerClass) {
  // l ⋈ o via l_orderkey=o_orderkey written twice (redundant) must not
  // double-count the selectivity: equivalence classes fold duplicates.
  SpjgBuilder b(&catalog_);
  int l = b.AddTable("lineitem");
  int o = b.AddTable("orders");
  b.Where(Eq(b.Col(l, "l_orderkey"), b.Col(o, "o_orderkey")));
  b.Where(Eq(b.Col(o, "o_orderkey"), b.Col(l, "l_orderkey")));
  b.Output(b.Col(l, "l_orderkey"));
  SpjgBuilder b2(&catalog_);
  int l2 = b2.AddTable("lineitem");
  int o2 = b2.AddTable("orders");
  b2.Where(Eq(b2.Col(l2, "l_orderkey"), b2.Col(o2, "o_orderkey")));
  b2.Output(b2.Col(l2, "l_orderkey"));
  EXPECT_DOUBLE_EQ(estimator_.EstimateSpj(b.Build()),
                   estimator_.EstimateSpj(b2.Build()));
}

TEST_F(CardinalityTest, HalfOpenRangeSelectivity) {
  // l_quantity uniform on [1, 50]: quantity > 25 keeps about half.
  SpjgBuilder b(&catalog_);
  int l = b.AddTable("lineitem");
  b.Where(Expr::MakeCompare(CompareOp::kGt, b.Col(l, "l_quantity"),
                            Expr::MakeLiteral(Value::Int64(25))));
  b.Output(b.Col(l, "l_orderkey"));
  double frac = estimator_.EstimateSpj(b.Build()) /
                static_cast<double>(
                    catalog_.table(schema_.lineitem).row_count());
  EXPECT_NEAR(frac, 0.5, 0.05);
}

TEST_F(CardinalityTest, BetweenIntervalNotDoubleCounted) {
  // 10 <= quantity <= 20 keeps ~20%, not 20% * 80%.
  SpjgBuilder b(&catalog_);
  int l = b.AddTable("lineitem");
  b.Where(Expr::MakeCompare(CompareOp::kGe, b.Col(l, "l_quantity"),
                            Expr::MakeLiteral(Value::Int64(10))));
  b.Where(Expr::MakeCompare(CompareOp::kLe, b.Col(l, "l_quantity"),
                            Expr::MakeLiteral(Value::Int64(20))));
  b.Output(b.Col(l, "l_orderkey"));
  double frac = estimator_.EstimateSpj(b.Build()) /
                static_cast<double>(
                    catalog_.table(schema_.lineitem).row_count());
  EXPECT_NEAR(frac, 0.2, 0.06);
}

TEST_F(CardinalityTest, DegeneratePointRangeFlooredAtOneValue) {
  // quantity >= 30 AND quantity <= 30: at least 1/ndv, never zero.
  SpjgBuilder b(&catalog_);
  int l = b.AddTable("lineitem");
  b.Where(Expr::MakeCompare(CompareOp::kGe, b.Col(l, "l_quantity"),
                            Expr::MakeLiteral(Value::Int64(30))));
  b.Where(Expr::MakeCompare(CompareOp::kLe, b.Col(l, "l_quantity"),
                            Expr::MakeLiteral(Value::Int64(30))));
  b.Output(b.Col(l, "l_orderkey"));
  double rows = static_cast<double>(
      catalog_.table(schema_.lineitem).row_count());
  double est = estimator_.EstimateSpj(b.Build());
  EXPECT_GE(est, rows / 50 * 0.9);  // 50 distinct quantities
  EXPECT_LE(est, rows / 50 * 2.0);
}

TEST_F(CardinalityTest, EqualityUsesDistinctCount) {
  SpjgBuilder b(&catalog_);
  int l = b.AddTable("lineitem");
  b.Where(Expr::MakeCompare(CompareOp::kEq, b.Col(l, "l_quantity"),
                            Expr::MakeLiteral(Value::Int64(7))));
  b.Output(b.Col(l, "l_orderkey"));
  double rows = static_cast<double>(
      catalog_.table(schema_.lineitem).row_count());
  EXPECT_NEAR(estimator_.EstimateSpj(b.Build()), rows / 50, rows / 500);
}

TEST_F(CardinalityTest, AggregateResultBoundedByGroupsAndInput) {
  SpjgBuilder b(&catalog_);
  int l = b.AddTable("lineitem");
  b.Output(b.Col(l, "l_quantity"));
  b.Output(Expr::MakeAggregate(AggKind::kCountStar, nullptr), "cnt");
  b.GroupBy(b.Col(l, "l_quantity"));
  double est = estimator_.EstimateResult(b.Build());
  EXPECT_NEAR(est, 50, 5);  // 50 distinct quantities

  // Scalar aggregate -> one row.
  SpjgBuilder b2(&catalog_);
  int l2 = b2.AddTable("lineitem");
  b2.Output(Expr::MakeAggregate(AggKind::kCountStar, nullptr), "cnt");
  b2.SetAggregate();
  (void)l2;
  EXPECT_DOUBLE_EQ(estimator_.EstimateResult(b2.Build()), 1.0);
}

TEST_F(CardinalityTest, RangeSelectivityDegenerateStatsFallToDefault) {
  // NaN/Inf statistics or bounds, and collapsed [min, max] ranges, must
  // fall back to the default selectivity instead of interpolating into
  // NaN (which would poison every best-plan comparison downstream).
  Catalog catalog;
  TableDef* t = catalog.CreateTable("t");
  ColumnOrdinal col = t->AddColumn("a", ValueType::kDouble, false);
  t->set_row_count(1000);
  CardinalityEstimator estimator(&catalog);
  auto sel = [&](CompareOp op, const Value& bound) {
    return estimator.RangeSelectivity(*t, col, op, bound);
  };
  const Value kBound = Value::Double(5.0);

  struct Case {
    const char* what;
    Value min, max, bound;
  };
  const Case cases[] = {
      {"nan min", Value::Double(std::nan("")), Value::Double(10.0), kBound},
      {"inf max", Value::Double(0.0),
       Value::Double(std::numeric_limits<double>::infinity()), kBound},
      {"-inf min", Value::Double(-std::numeric_limits<double>::infinity()),
       Value::Double(10.0), kBound},
      {"nan bound", Value::Double(0.0), Value::Double(10.0),
       Value::Double(std::nan(""))},
      {"collapsed range", Value::Double(7.0), Value::Double(7.0), kBound},
      {"inverted range", Value::Double(10.0), Value::Double(0.0), kBound},
  };
  for (const Case& c : cases) {
    t->mutable_column(col).stats.min = c.min;
    t->mutable_column(col).stats.max = c.max;
    for (CompareOp op : {CompareOp::kLt, CompareOp::kLe, CompareOp::kGt,
                         CompareOp::kGe}) {
      const double s = sel(op, c.bound);
      EXPECT_TRUE(std::isfinite(s)) << c.what;
      EXPECT_GT(s, 0.0) << c.what;
      EXPECT_LE(s, 1.0) << c.what;
    }
  }
}

TEST_F(CardinalityTest, EstimatesAreAlwaysFiniteAndPositive) {
  // An empty table (row_count 0) with a stack of range predicates must
  // not underflow to 0 — a zero estimate makes every plan shape over the
  // table look free — and poisoned statistics must not yield NaN/Inf.
  Catalog catalog;
  TableDef* t = catalog.CreateTable("empty");
  ColumnOrdinal col = t->AddColumn("a", ValueType::kDouble, false);
  t->set_row_count(0);
  t->mutable_column(col).stats.min = Value::Double(std::nan(""));
  t->mutable_column(col).stats.max = Value::Double(std::nan(""));
  CardinalityEstimator estimator(&catalog);

  SpjgBuilder b(&catalog);
  int r = b.AddTable("empty");
  for (int i = 0; i < 8; ++i) {
    b.Where(Expr::MakeCompare(CompareOp::kLt, b.Col(r, "a"),
                              Expr::MakeLiteral(Value::Double(1.0))));
  }
  b.Output(b.Col(r, "a"));
  const SpjgQuery q = b.Build();
  for (double est : {estimator.EstimateSpj(q), estimator.EstimateResult(q)}) {
    EXPECT_TRUE(std::isfinite(est));
    EXPECT_GT(est, 0.0);
  }
}

TEST_F(CardinalityTest, HugeCrossJoinsClampInsteadOfOverflowing) {
  // A cross join of maximal tables would overflow double multiplication
  // toward Inf without the cardinality clamp.
  Catalog catalog;
  for (const char* name : {"big1", "big2", "big3"}) {
    TableDef* t = catalog.CreateTable(name);
    t->AddColumn("a", ValueType::kInt64, false);
    t->set_row_count(std::numeric_limits<int64_t>::max());
  }
  CardinalityEstimator estimator(&catalog);
  SpjgBuilder b(&catalog);
  int t1 = b.AddTable("big1");
  b.AddTable("big2");
  b.AddTable("big3");
  b.Output(b.Col(t1, "a"));
  const double est = estimator.EstimateSpj(b.Build());
  EXPECT_TRUE(std::isfinite(est));
  EXPECT_LE(est, 1e18);
  EXPECT_GT(est, 0.0);
}

TEST_F(CardinalityTest, ResidualsUseDefaultSelectivity) {
  SpjgBuilder b(&catalog_);
  int p = b.AddTable("part");
  b.Where(Expr::MakeLike(b.Col(p, "p_name"), "%steel%"));
  b.Output(b.Col(p, "p_partkey"));
  double rows =
      static_cast<double>(catalog_.table(schema_.part).row_count());
  EXPECT_NEAR(estimator_.EstimateSpj(b.Build()), rows / 3, rows / 30);
}

class CardinalityOracleSweepTest : public ::testing::TestWithParam<uint64_t> {
};

// Every registered view's estimate shape, evaluated, and every memo-group
// signature the view-matching rule probes over the §5 query set estimate
// exactly (==, not NEAR) what the frozen query-at-a-time estimator
// (tests/cardinality_oracle.h) computes — with the statistics the views
// were registered under, and again after three tables' row and distinct
// counts change under them.
TEST_P(CardinalityOracleSweepTest, ShapesAndSignaturesEqualTheFrozenEstimator) {
  bench::Workload workload(/*num_views=*/1000, /*num_queries=*/150,
                           GetParam());
  auto service = workload.MakeService(1000, /*use_filter_tree=*/true);
  const ViewCatalog& views = service->views();
  ASSERT_EQ(views.num_views(), 1000);
  bench::RecordingSource recorder(service.get());
  Optimizer optimizer(&workload.catalog(), &recorder);
  for (const SpjgQuery& q : workload.queries()) {
    QueryContext ctx;
    (void)optimizer.Optimize(q, ctx);
  }
  ASSERT_FALSE(recorder.signatures().empty());

  Catalog& catalog = workload.mutable_catalog();
  const CardinalityEstimator estimator(&catalog);
  auto sweep = [&](const char* phase) {
    SCOPED_TRACE(phase);
    int64_t mismatches = 0;
    auto check = [&](double got, double want, const std::string& what) {
      if (got == want) return;
      if (++mismatches <= 5) {
        ADD_FAILURE() << what << ": " << got << " != oracle " << want;
      }
    };
    for (ViewId id = 0; id < views.num_views(); ++id) {
      const ViewDefinition& v = views.view(id);
      const double spj = oracle::EstimateSpj(catalog, v.query());
      const double result = oracle::EstimateResult(catalog, v.query());
      check(estimator.EstimateSpj(v.estimate_shape()), spj,
            v.name() + " shape spj");
      check(estimator.EstimateResult(v.estimate_shape()), result,
            v.name() + " shape result");
      check(estimator.EstimateResult(v.query()), result,
            v.name() + " query result");
    }
    for (const SpjgQuery& sig : recorder.signatures()) {
      check(estimator.EstimateSpj(sig), oracle::EstimateSpj(catalog, sig),
            "signature spj " + sig.ToSql(catalog));
      check(estimator.EstimateResult(sig),
            oracle::EstimateResult(catalog, sig),
            "signature result " + sig.ToSql(catalog));
    }
    EXPECT_EQ(mismatches, 0);
  };
  sweep("registration statistics");

  for (const char* name : {"lineitem", "orders", "part"}) {
    TableDef& table = catalog.mutable_table(catalog.FindTable(name)->id());
    table.set_row_count(table.row_count() * 3 + 7);
    for (ColumnOrdinal c = 0; c < table.num_columns(); ++c) {
      ColumnStats& stats = table.mutable_column(c).stats;
      stats.distinct = stats.distinct > 0 ? stats.distinct * 2 + 1 : 17;
    }
  }
  sweep("changed statistics");
}

INSTANTIATE_TEST_SUITE_P(Seeds, CardinalityOracleSweepTest,
                         ::testing::Values(uint64_t{1}, uint64_t{17}));

}  // namespace
}  // namespace mvopt
