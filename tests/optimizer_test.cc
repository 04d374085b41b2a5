#include "optimizer/optimizer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

#include "optimizer/plan_exec.h"
#include "tpch/datagen.h"
#include "tpch/schema.h"
#include "tpch/workload.h"

namespace mvopt {
namespace {

std::vector<std::string> Canonicalize(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
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

class OptimizerTest : public ::testing::Test {
 protected:
  OptimizerTest()
      : schema_(tpch::BuildSchema(&catalog_, 0.0005)), db_(&catalog_) {
    tpch::DataGenOptions dg;
    dg.scale_factor = 0.0005;
    tpch::GenerateData(&db_, schema_, dg);
  }

  static ExprPtr Eq(ExprPtr a, ExprPtr b) {
    return Expr::MakeCompare(CompareOp::kEq, std::move(a), std::move(b));
  }

  void ExpectPlanMatchesReference(const SpjgQuery& query,
                                  Optimizer* optimizer) {
    QueryContext ctx;
    OptimizationResult result = optimizer->Optimize(query, ctx);
    ASSERT_NE(result.plan, nullptr);
    PlanExecutor exec(&db_);
    auto got = Canonicalize(exec.Execute(result.plan));
    auto expected = Canonicalize(db_.ExecuteSpjg(query));
    ASSERT_EQ(got, expected) << "plan:\n"
                             << result.plan->ToString(catalog_) << "query:\n"
                             << query.ToSql(catalog_);
  }

  Catalog catalog_;
  tpch::Schema schema_;
  Database db_;
};

TEST_F(OptimizerTest, SpjPlanMatchesReferenceExecutor) {
  SpjgBuilder b(&catalog_);
  int l = b.AddTable("lineitem");
  int o = b.AddTable("orders");
  b.Where(Eq(b.Col(l, "l_orderkey"), b.Col(o, "o_orderkey")));
  b.Where(Expr::MakeCompare(CompareOp::kGt, b.Col(l, "l_quantity"),
                            Expr::MakeLiteral(Value::Int64(40))));
  b.Output(b.Col(l, "l_orderkey"));
  b.Output(b.Col(o, "o_custkey"));
  b.Output(b.Col(l, "l_quantity"));
  Optimizer optimizer(&catalog_, nullptr);
  ExpectPlanMatchesReference(b.Build(), &optimizer);
}

TEST_F(OptimizerTest, ThreeWayJoinAggregatePlan) {
  SpjgBuilder b(&catalog_);
  int l = b.AddTable("lineitem");
  int o = b.AddTable("orders");
  int c = b.AddTable("customer");
  b.Where(Eq(b.Col(l, "l_orderkey"), b.Col(o, "o_orderkey")));
  b.Where(Eq(b.Col(o, "o_custkey"), b.Col(c, "c_custkey")));
  b.Output(b.Col(c, "c_nationkey"));
  b.Output(Expr::MakeAggregate(AggKind::kCountStar, nullptr), "cnt");
  b.Output(Expr::MakeAggregate(AggKind::kSum, b.Col(l, "l_quantity")), "q");
  b.GroupBy(b.Col(c, "c_nationkey"));
  Optimizer optimizer(&catalog_, nullptr);
  ExpectPlanMatchesReference(b.Build(), &optimizer);
}

TEST_F(OptimizerTest, CrossJoinFallback) {
  // No join predicate at all: the optimizer must still produce a valid
  // (cross product) plan.
  SpjgBuilder b(&catalog_);
  int n = b.AddTable("nation");
  int r = b.AddTable("region");
  b.Output(b.Col(n, "n_name"));
  b.Output(b.Col(r, "r_name"));
  Optimizer optimizer(&catalog_, nullptr);
  ExpectPlanMatchesReference(b.Build(), &optimizer);
}

TEST_F(OptimizerTest, IndexRangeScanChosenForSelectivePkRange) {
  SpjgBuilder b(&catalog_);
  int o = b.AddTable("orders");
  // Very selective range on the primary key.
  b.Where(Expr::MakeCompare(CompareOp::kLt, b.Col(o, "o_orderkey"),
                            Expr::MakeLiteral(Value::Int64(20))));
  b.Output(b.Col(o, "o_orderkey"));
  Optimizer optimizer(&catalog_, nullptr);
  QueryContext ctx;
  OptimizationResult result = optimizer.Optimize(b.Build(), ctx);
  ASSERT_NE(result.plan, nullptr);
  // Project over an index range scan.
  ASSERT_EQ(result.plan->kind, PhysKind::kProject);
  EXPECT_EQ(result.plan->children[0]->kind, PhysKind::kIndexRangeScan);
  ExpectPlanMatchesReference(b.Build(), &optimizer);
}

class OptimizerViewTest : public OptimizerTest {
 protected:
  OptimizerViewTest() : service_(&catalog_) {}

  ViewDefinition* AddMaterializedView(const std::string& name, SpjgQuery def,
                                      bool clustered_on_first = true) {
    std::string error;
    ViewDefinition* v = service_.AddView(name, std::move(def), &error);
    EXPECT_NE(v, nullptr) << error;
    if (v == nullptr) return nullptr;
    if (clustered_on_first) {
      IndexDef ci;
      ci.name = name + "_cidx";
      ci.key_columns = {0};
      ci.unique = v->query().is_aggregate && v->query().group_by.size() == 1;
      v->set_clustered_index(ci);
    }
    db_.MaterializeView(v);
    return v;
  }

  MatchingService service_;
};

TEST_F(OptimizerViewTest, ViewBasedPlanWinsAndMatchesReference) {
  // Materialize exactly the aggregation the query asks for.
  SpjgBuilder vb(&catalog_);
  int l = vb.AddTable("lineitem");
  int o = vb.AddTable("orders");
  vb.Where(Eq(vb.Col(l, "l_orderkey"), vb.Col(o, "o_orderkey")));
  vb.Output(vb.Col(o, "o_custkey"));
  vb.Output(Expr::MakeAggregate(AggKind::kCountStar, nullptr), "cnt");
  vb.Output(Expr::MakeAggregate(AggKind::kSum, vb.Col(l, "l_quantity")),
            "sumq");
  vb.GroupBy(vb.Col(o, "o_custkey"));
  AddMaterializedView("rev_by_cust", vb.Build());

  SpjgBuilder qb(&catalog_);
  int ql = qb.AddTable("lineitem");
  int qo = qb.AddTable("orders");
  qb.Where(Eq(qb.Col(ql, "l_orderkey"), qb.Col(qo, "o_orderkey")));
  qb.Output(qb.Col(qo, "o_custkey"));
  qb.Output(Expr::MakeAggregate(AggKind::kSum, qb.Col(ql, "l_quantity")),
            "q");
  qb.GroupBy(qb.Col(qo, "o_custkey"));
  SpjgQuery query = qb.Build();

  Optimizer with_views(&catalog_, &service_);
  QueryContext ctx;
  OptimizationResult result = with_views.Optimize(query, ctx);
  ASSERT_NE(result.plan, nullptr);
  EXPECT_TRUE(result.uses_view) << result.plan->ToString(catalog_);
  EXPECT_GT(result.metrics.view_matching_invocations, 0);
  EXPECT_GT(result.metrics.substitutes_produced, 0);

  Optimizer without_views(&catalog_, nullptr);
  OptimizationResult baseline = without_views.Optimize(query, ctx);
  EXPECT_LT(result.cost, baseline.cost);

  PlanExecutor exec(&db_);
  EXPECT_EQ(Canonicalize(exec.Execute(result.plan)),
            Canonicalize(exec.Execute(baseline.plan)));
  ExpectPlanMatchesReference(query, &with_views);
}

TEST_F(OptimizerViewTest, PaperExample4ThroughPreaggregation) {
  // View v4 (paper Example 4): revenue per o_custkey.
  SpjgBuilder vb(&catalog_);
  int l = vb.AddTable("lineitem");
  int o = vb.AddTable("orders");
  vb.Where(Eq(vb.Col(l, "l_orderkey"), vb.Col(o, "o_orderkey")));
  vb.Output(vb.Col(o, "o_custkey"));
  vb.Output(Expr::MakeAggregate(AggKind::kCountStar, nullptr), "cnt");
  vb.Output(Expr::MakeAggregate(
                AggKind::kSum,
                Expr::MakeArith(ArithOp::kMul, vb.Col(l, "l_quantity"),
                                vb.Col(l, "l_extendedprice"))),
            "revenue");
  vb.GroupBy(vb.Col(o, "o_custkey"));
  AddMaterializedView("v4", vb.Build());

  // The paper's query: revenue per nation, which needs the customer
  // join. The view matches only through the pre-aggregation alternative.
  SpjgBuilder qb(&catalog_);
  int ql = qb.AddTable("lineitem");
  int qo = qb.AddTable("orders");
  int qc = qb.AddTable("customer");
  qb.Where(Eq(qb.Col(ql, "l_orderkey"), qb.Col(qo, "o_orderkey")));
  qb.Where(Eq(qb.Col(qo, "o_custkey"), qb.Col(qc, "c_custkey")));
  qb.Output(qb.Col(qc, "c_nationkey"));
  qb.Output(Expr::MakeAggregate(
                AggKind::kSum,
                Expr::MakeArith(ArithOp::kMul, qb.Col(ql, "l_quantity"),
                                qb.Col(ql, "l_extendedprice"))),
            "rev");
  qb.GroupBy(qb.Col(qc, "c_nationkey"));
  SpjgQuery query = qb.Build();

  Optimizer optimizer(&catalog_, &service_);
  QueryContext ctx;
  OptimizationResult result = optimizer.Optimize(query, ctx);
  ASSERT_NE(result.plan, nullptr);
  EXPECT_TRUE(result.uses_view)
      << "pre-aggregation + view matching should rewrite via v4:\n"
      << result.plan->ToString(catalog_);
  ExpectPlanMatchesReference(query, &optimizer);

  // Without pre-aggregation the view cannot be exploited.
  OptimizerOptions no_preagg;
  no_preagg.enable_preaggregation = false;
  Optimizer limited(&catalog_, &service_, no_preagg);
  OptimizationResult limited_result = limited.Optimize(query, ctx);
  EXPECT_FALSE(limited_result.uses_view);
  ExpectPlanMatchesReference(query, &limited);
}

TEST_F(OptimizerViewTest, NoSubstitutesModeStillInvokesMatching) {
  SpjgBuilder vb(&catalog_);
  int l = vb.AddTable("lineitem");
  vb.Output(vb.Col(l, "l_orderkey"));
  vb.Output(vb.Col(l, "l_quantity"));
  AddMaterializedView("li_cols", vb.Build(), /*clustered_on_first=*/false);

  SpjgBuilder qb(&catalog_);
  int ql = qb.AddTable("lineitem");
  qb.Output(qb.Col(ql, "l_orderkey"));
  SpjgQuery query = qb.Build();

  OptimizerOptions opts;
  opts.produce_substitutes = false;  // Figure 2's "No Alt" series
  Optimizer optimizer(&catalog_, &service_, opts);
  QueryContext ctx;
  OptimizationResult result = optimizer.Optimize(query, ctx);
  EXPECT_GT(result.metrics.view_matching_invocations, 0);
  EXPECT_FALSE(result.uses_view);
}

class OptimizerPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OptimizerPropertyTest, BestPlansMatchReferenceWithAndWithoutViews) {
  const uint64_t seed = GetParam();
  Catalog catalog;
  tpch::Schema schema = tpch::BuildSchema(&catalog, 0.0003);
  Database db(&catalog);
  tpch::DataGenOptions dg;
  dg.scale_factor = 0.0003;
  dg.seed = seed + 99;
  tpch::GenerateData(&db, schema, dg);

  MatchingService service(&catalog);
  tpch::WorkloadGenerator view_gen(&catalog, seed * 101 + 7);
  for (int i = 0; i < 20; ++i) {
    SpjgQuery def = view_gen.GenerateView();
    std::string error;
    ViewDefinition* v =
        service.AddView("pv" + std::to_string(i), std::move(def), &error);
    ASSERT_NE(v, nullptr) << error;
    view_gen.AttachDefaultIndexes(v);
    db.MaterializeView(v);
  }

  Optimizer with_views(&catalog, &service);
  Optimizer without_views(&catalog, nullptr);
  PlanExecutor exec(&db);
  std::vector<TableId> base_tables = {
      schema.region,   schema.nation, schema.supplier, schema.part,
      schema.partsupp, schema.customer, schema.orders, schema.lineitem};
  tpch::WorkloadGenerator query_gen(&catalog, base_tables, seed * 55 + 13);
  int used_views = 0;
  for (int j = 0; j < 25; ++j) {
    SpjgQuery query = query_gen.GenerateQuery();
    auto expected = Canonicalize(db.ExecuteSpjg(query));

    QueryContext ctx;
    OptimizationResult r1 = with_views.Optimize(query, ctx);
    ASSERT_NE(r1.plan, nullptr);
    auto got1 = Canonicalize(exec.Execute(r1.plan));
    ASSERT_EQ(got1, expected) << "with-views plan diverges:\n"
                              << r1.plan->ToString(catalog) << "query:\n"
                              << query.ToSql(catalog);
    if (r1.uses_view) ++used_views;

    OptimizationResult r2 = without_views.Optimize(query, ctx);
    ASSERT_NE(r2.plan, nullptr);
    auto got2 = Canonicalize(exec.Execute(r2.plan));
    ASSERT_EQ(got2, expected) << "no-views plan diverges:\n"
                              << r2.plan->ToString(catalog);
    // Views can only improve the estimated cost.
    EXPECT_LE(r1.cost, r2.cost * 1.0001);
  }
  (void)used_views;
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimizerPropertyTest,
                         ::testing::Values(101, 202, 303, 404));

}  // namespace
}  // namespace mvopt
