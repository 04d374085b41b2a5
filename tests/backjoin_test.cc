// Base-table backjoins (§7): "a view contains all tables and rows needed
// but some columns are missing. In that case, it may be worthwhile
// backjoining the view to a base table to pull in the missing columns."

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

#include "engine/database.h"
#include "index/matching_service.h"
#include "optimizer/cardinality.h"
#include "optimizer/optimizer.h"
#include "rewrite/matcher.h"
#include "tpch/datagen.h"
#include "tpch/schema.h"

namespace mvopt {
namespace {

/// The first view-scan node of `plan` (depth first), or nullptr.
const PhysPlan* FindViewScan(const PhysPlanPtr& plan) {
  if (plan == nullptr) return nullptr;
  if (plan->kind == PhysKind::kViewScan) return plan.get();
  for (const PhysPlanPtr& child : plan->children) {
    if (const PhysPlan* found = FindViewScan(child)) return found;
  }
  return nullptr;
}

std::vector<std::string> Canonicalize(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  for (const Row& r : rows) {
    std::string s;
    for (const Value& v : r) {
      if (v.type() == ValueType::kDouble) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.2f|", v.dbl());
        s += buf;
      } else {
        s += v.ToString() + "|";
      }
    }
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end());
  return out;
}

class BackjoinTest : public ::testing::Test {
 protected:
  BackjoinTest() : schema_(tpch::BuildSchema(&catalog_, 0.001)) {}

  static ExprPtr Eq(ExprPtr a, ExprPtr b) {
    return Expr::MakeCompare(CompareOp::kEq, std::move(a), std::move(b));
  }

  // View over part with the key but not p_retailprice.
  ViewDefinition PartKeyView() {
    SpjgBuilder vb(&catalog_);
    int p = vb.AddTable("part");
    vb.Where(Expr::MakeCompare(CompareOp::kGt, vb.Col(p, "p_partkey"),
                               Expr::MakeLiteral(Value::Int64(0))));
    vb.Output(vb.Col(p, "p_partkey"));
    vb.Output(vb.Col(p, "p_size"));
    return ViewDefinition(0, "part_slim", vb.Build());
  }

  // Query asking for p_retailprice, which the view lacks.
  SpjgQuery RetailPriceQuery() {
    SpjgBuilder qb(&catalog_);
    int p = qb.AddTable("part");
    qb.Where(Expr::MakeCompare(CompareOp::kGt, qb.Col(p, "p_partkey"),
                               Expr::MakeLiteral(Value::Int64(0))));
    qb.Output(qb.Col(p, "p_partkey"));
    qb.Output(qb.Col(p, "p_retailprice"));
    return qb.Build();
  }

  Catalog catalog_;
  tpch::Schema schema_;
};

TEST_F(BackjoinTest, DisabledByDefaultRejectsMissingColumn) {
  ViewMatcher matcher(&catalog_);
  MatchResult r = matcher.Match(RetailPriceQuery(), PartKeyView());
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.reason, RejectReason::kOutputNotComputable);
}

TEST_F(BackjoinTest, RecoversMissingOutputColumn) {
  MatchOptions opts;
  opts.enable_backjoins = true;
  ViewMatcher matcher(&catalog_, opts);
  ViewDefinition view = PartKeyView();
  MatchResult r = matcher.Match(RetailPriceQuery(), view);
  ASSERT_TRUE(r.ok()) << RejectReasonName(r.reason);
  const Substitute& sub = *r.substitute;
  ASSERT_EQ(sub.backjoins.size(), 1u);
  EXPECT_EQ(sub.backjoins[0].table, schema_.part);
  ASSERT_EQ(sub.backjoins[0].key_join.size(), 1u);
  EXPECT_EQ(sub.backjoins[0].key_join[0].first, 0);  // p_partkey output
  // The recovered column reference uses table_ref 1 (the backjoin).
  EXPECT_EQ(sub.outputs[1].expr->column_ref().table_ref, 1);
}

TEST_F(BackjoinTest, NoBackjoinWithoutRoutableUniqueKey) {
  // View without the part key: nothing to join back on.
  SpjgBuilder vb(&catalog_);
  int p = vb.AddTable("part");
  vb.Output(vb.Col(p, "p_size"));
  ViewDefinition view(0, "no_key", vb.Build());
  MatchOptions opts;
  opts.enable_backjoins = true;
  ViewMatcher matcher(&catalog_, opts);
  MatchResult r = matcher.Match(RetailPriceQuery(), view);
  EXPECT_FALSE(r.ok());
}

TEST_F(BackjoinTest, CompensatingPredicateViaBackjoin) {
  // The query filters on p_retailprice (residual-free range on a missing
  // column): the compensating range predicate must route to the
  // backjoined table.
  SpjgBuilder qb(&catalog_);
  int p = qb.AddTable("part");
  qb.Where(Expr::MakeCompare(CompareOp::kGt, qb.Col(p, "p_partkey"),
                             Expr::MakeLiteral(Value::Int64(0))));
  qb.Where(Expr::MakeCompare(CompareOp::kGt, qb.Col(p, "p_retailprice"),
                             Expr::MakeLiteral(Value::Double(905.0))));
  qb.Output(qb.Col(p, "p_partkey"));
  MatchOptions opts;
  opts.enable_backjoins = true;
  ViewMatcher matcher(&catalog_, opts);
  ViewDefinition view = PartKeyView();
  MatchResult r = matcher.Match(qb.Build(), view);
  ASSERT_TRUE(r.ok()) << RejectReasonName(r.reason);
  ASSERT_EQ(r.substitute->backjoins.size(), 1u);
  ASSERT_EQ(r.substitute->predicates.size(), 1u);
}

TEST_F(BackjoinTest, AggregationViewBackjoinsDimensionTable) {
  // Aggregation view grouped by o_custkey; the query groups by the same
  // key but also outputs c_name — recovered by backjoining customer on
  // c_custkey = o_custkey (a grouping output).
  SpjgBuilder vb(&catalog_);
  int l = vb.AddTable("lineitem");
  int o = vb.AddTable("orders");
  int c = vb.AddTable("customer");
  vb.Where(Eq(vb.Col(l, "l_orderkey"), vb.Col(o, "o_orderkey")));
  vb.Where(Eq(vb.Col(o, "o_custkey"), vb.Col(c, "c_custkey")));
  vb.Output(vb.Col(o, "o_custkey"));
  vb.Output(Expr::MakeAggregate(AggKind::kCountStar, nullptr), "cnt");
  vb.Output(Expr::MakeAggregate(AggKind::kSum, vb.Col(l, "l_quantity")),
            "sumq");
  vb.GroupBy(vb.Col(o, "o_custkey"));
  ViewDefinition view(0, "rev_by_cust", vb.Build());

  SpjgBuilder qb(&catalog_);
  int ql = qb.AddTable("lineitem");
  int qo = qb.AddTable("orders");
  int qc = qb.AddTable("customer");
  qb.Where(Eq(qb.Col(ql, "l_orderkey"), qb.Col(qo, "o_orderkey")));
  qb.Where(Eq(qb.Col(qo, "o_custkey"), qb.Col(qc, "c_custkey")));
  qb.Output(qb.Col(qo, "o_custkey"));
  qb.Output(qb.Col(qc, "c_name"));
  qb.Output(Expr::MakeAggregate(AggKind::kSum, qb.Col(ql, "l_quantity")),
            "q");
  qb.GroupBy(qb.Col(qo, "o_custkey"));
  qb.GroupBy(qb.Col(qc, "c_name"));

  MatchOptions opts;
  opts.enable_backjoins = true;
  ViewMatcher matcher(&catalog_, opts);
  MatchResult r = matcher.Match(qb.Build(), view);
  ASSERT_TRUE(r.ok()) << RejectReasonName(r.reason);
  ASSERT_EQ(r.substitute->backjoins.size(), 1u);
  EXPECT_EQ(r.substitute->backjoins[0].table, schema_.customer);
}

TEST_F(BackjoinTest, EndToEndExecutionMatchesReference) {
  Database db(&catalog_);
  tpch::DataGenOptions dg;
  dg.scale_factor = 0.001;
  tpch::GenerateData(&db, schema_, dg);

  MatchingService::Options sopts;
  sopts.match.enable_backjoins = true;
  MatchingService service(&catalog_, sopts);
  std::string error;
  ViewDefinition view = PartKeyView();
  ViewDefinition* v = service.AddView("part_slim", view.query(), &error);
  ASSERT_NE(v, nullptr) << error;
  db.MaterializeView(v);

  SpjgQuery query = RetailPriceQuery();
  QueryContext ctx;
  auto subs = service.FindSubstitutes(query, ctx);
  ASSERT_EQ(subs.size(), 1u);
  ASSERT_FALSE(subs[0].backjoins.empty());
  auto expected = Canonicalize(db.ExecuteSpjg(query));
  auto got = Canonicalize(
      db.ExecuteSpjg(subs[0].ToQueryOverView(v->materialized_table())));
  EXPECT_EQ(got, expected);
}

// Costing reads the statistics of the table a compensating range is on.
// A range routed through a backjoin is on {1 + j, c}: column c of the
// backjoined base table, which the 2-column part_slim table lacks (c is
// p_retailprice, ordinal 7). Optimize prices every alternative, so it
// must cost the backjoined view scan without reading past the view
// table's columns.
TEST_F(BackjoinTest, OptimizePricesBackjoinedRangeOnTheBaseTable) {
  Database db(&catalog_);
  tpch::DataGenOptions dg;
  dg.scale_factor = 0.001;
  tpch::GenerateData(&db, schema_, dg);
  MatchingService::Options sopts;
  sopts.match.enable_backjoins = true;
  MatchingService service(&catalog_, sopts);
  std::string error;
  ViewDefinition* v =
      service.AddView("part_slim", PartKeyView().query(), &error);
  ASSERT_NE(v, nullptr) << error;
  db.MaterializeView(v);

  SpjgBuilder qb(&catalog_);
  int p = qb.AddTable("part");
  qb.Where(Expr::MakeCompare(CompareOp::kGt, qb.Col(p, "p_partkey"),
                             Expr::MakeLiteral(Value::Int64(0))));
  qb.Where(Expr::MakeCompare(CompareOp::kGt, qb.Col(p, "p_retailprice"),
                             Expr::MakeLiteral(Value::Double(905.0))));
  qb.Output(qb.Col(p, "p_partkey"));
  Optimizer optimizer(&catalog_, &service);
  QueryContext ctx;
  OptimizationResult r = optimizer.Optimize(qb.Build(), ctx);
  ASSERT_NE(r.plan, nullptr);
  EXPECT_GT(r.metrics.substitutes_produced, 0);
}

// The priced selectivity is the backjoined column's: an aggregation view
// over lineitem x orders keyed by o_orderkey backjoins orders for the
// query's o_totalprice range, and the view scan's row estimate must use
// orders.o_totalprice statistics — not those of the view table's column
// with the same ordinal (MIN(l_quantity) here).
TEST_F(BackjoinTest, BackjoinedRangeIsPricedWithBaseTableStatistics) {
  Database db(&catalog_);
  tpch::DataGenOptions dg;
  dg.scale_factor = 0.001;
  tpch::GenerateData(&db, schema_, dg);
  MatchingService::Options sopts;
  sopts.match.enable_backjoins = true;
  MatchingService service(&catalog_, sopts);

  SpjgBuilder vb(&catalog_);
  int vl = vb.AddTable("lineitem");
  int vo = vb.AddTable("orders");
  vb.Where(Eq(vb.Col(vl, "l_orderkey"), vb.Col(vo, "o_orderkey")));
  vb.Output(vb.Col(vo, "o_orderkey"));
  vb.Output(Expr::MakeAggregate(AggKind::kCountStar, nullptr), "cnt");
  vb.Output(Expr::MakeAggregate(AggKind::kSum, vb.Col(vl, "l_quantity")),
            "sumq");
  vb.Output(Expr::MakeAggregate(AggKind::kMin, vb.Col(vl, "l_quantity")),
            "minq");
  vb.GroupBy(vb.Col(vo, "o_orderkey"));
  std::string error;
  ViewDefinition* v = service.AddView("order_qty", vb.Build(), &error);
  ASSERT_NE(v, nullptr) << error;
  db.MaterializeView(v);

  const TableDef& orders = catalog_.table(schema_.orders);
  const ColumnOrdinal o_totalprice = *orders.FindColumn("o_totalprice");
  ASSERT_LT(o_totalprice, catalog_.table(v->materialized_table()).num_columns())
      << "the regression needs an in-range ordinal of the view table";
  const Value bound = Value::Double(100000.0);
  SpjgBuilder qb(&catalog_);
  int ql = qb.AddTable("lineitem");
  int qo = qb.AddTable("orders");
  qb.Where(Eq(qb.Col(ql, "l_orderkey"), qb.Col(qo, "o_orderkey")));
  qb.Where(Expr::MakeCompare(CompareOp::kGt, qb.Col(qo, "o_totalprice"),
                             Expr::MakeLiteral(bound)));
  qb.Output(qb.Col(qo, "o_orderkey"));
  qb.Output(Expr::MakeAggregate(AggKind::kSum, qb.Col(ql, "l_quantity")),
            "q");
  qb.GroupBy(qb.Col(qo, "o_orderkey"));

  Optimizer optimizer(&catalog_, &service);
  QueryContext ctx;
  OptimizationResult r = optimizer.Optimize(qb.Build(), ctx);
  const PhysPlan* scan = FindViewScan(r.plan);
  ASSERT_NE(scan, nullptr) << "the view plan should win";
  ASSERT_EQ(scan->substitute->backjoins.size(), 1u);
  ASSERT_EQ(scan->substitute->predicates.size(), 1u);
  const double view_rows = static_cast<double>(
      catalog_.table(v->materialized_table()).row_count());
  const double sel = CardinalityEstimator(&catalog_).RangeSelectivity(
      orders, o_totalprice, CompareOp::kGt, bound);
  EXPECT_DOUBLE_EQ(scan->rows, std::max(1.0, view_rows * sel));
}

}  // namespace
}  // namespace mvopt
