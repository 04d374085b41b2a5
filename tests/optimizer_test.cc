#include "optimizer/optimizer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>

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

void CollectViewScans(const PhysPlanPtr& plan,
                      std::vector<const PhysPlan*>* out) {
  if (plan->kind == PhysKind::kViewScan ||
      plan->kind == PhysKind::kViewIndexScan) {
    out->push_back(plan.get());
  }
  for (const PhysPlanPtr& child : plan->children) {
    CollectViewScans(child, out);
  }
}

// A view that is not materialized is priced from its estimate, evaluated
// against the statistics current at optimization time: after lineitem's
// statistics change — set directly, then refreshed from loaded rows —
// every view scan is priced differently, and exactly as in a service
// whose views were registered after the change.
TEST_F(OptimizerTest, StatisticsChangeRepricesRegisteredViews) {
  auto lit = [](int64_t v) { return Expr::MakeLiteral(Value::Int64(v)); };
  auto register_views = [&](MatchingService* service) {
    SpjgBuilder wide(&catalog_);
    int l = wide.AddTable("lineitem");
    wide.Where(Expr::MakeCompare(CompareOp::kGt, wide.Col(l, "l_quantity"),
                                 lit(10)));
    wide.Output(wide.Col(l, "l_orderkey"));
    wide.Output(wide.Col(l, "l_quantity"));
    wide.Output(wide.Col(l, "l_partkey"));
    ASSERT_NE(service->AddView("li_wide", wide.Build()), nullptr);

    SpjgBuilder agg(&catalog_);
    l = agg.AddTable("lineitem");
    agg.Where(Expr::MakeCompare(CompareOp::kGt, agg.Col(l, "l_quantity"),
                                lit(5)));
    agg.Output(agg.Col(l, "l_orderkey"));
    agg.Output(agg.Col(l, "l_partkey"));
    agg.Output(Expr::MakeAggregate(AggKind::kCountStar, nullptr), "cnt");
    agg.Output(Expr::MakeAggregate(AggKind::kSum, agg.Col(l, "l_quantity")),
               "sumq");
    agg.GroupBy(agg.Col(l, "l_orderkey"));
    agg.GroupBy(agg.Col(l, "l_partkey"));
    ASSERT_NE(service->AddView("li_by_order", agg.Build()), nullptr);
  };

  std::vector<SpjgQuery> queries;
  {
    SpjgBuilder b(&catalog_);
    int l = b.AddTable("lineitem");
    b.Where(Expr::MakeCompare(CompareOp::kGt, b.Col(l, "l_quantity"),
                              lit(20)));
    b.Output(b.Col(l, "l_orderkey"));
    b.Output(b.Col(l, "l_quantity"));
    queries.push_back(b.Build());
  }
  {
    SpjgBuilder b(&catalog_);
    int l = b.AddTable("lineitem");
    b.Where(Expr::MakeCompare(CompareOp::kGt, b.Col(l, "l_quantity"),
                              lit(5)));
    b.Output(b.Col(l, "l_orderkey"));
    b.Output(b.Col(l, "l_partkey"));
    b.Output(Expr::MakeAggregate(AggKind::kSum, b.Col(l, "l_quantity")),
             "q");
    b.GroupBy(b.Col(l, "l_orderkey"));
    b.GroupBy(b.Col(l, "l_partkey"));
    queries.push_back(b.Build());
  }

  auto plans = [&](MatchingService* service) {
    std::vector<OptimizationResult> out;
    Optimizer optimizer(&catalog_, service);
    for (const SpjgQuery& q : queries) {
      QueryContext ctx;
      out.push_back(optimizer.Optimize(q, ctx));
    }
    return out;
  };
  auto view_scans = [](const OptimizationResult& r) {
    std::vector<const PhysPlan*> scans;
    CollectViewScans(r.plan, &scans);
    return scans;
  };

  MatchingService service(&catalog_);
  register_views(&service);
  std::vector<OptimizationResult> before = plans(&service);
  for (const OptimizationResult& r : before) {
    ASSERT_TRUE(r.uses_view) << r.plan->ToString(catalog_);
  }

  auto expect_repriced = [&](const char* change) {
    SCOPED_TRACE(change);
    std::vector<OptimizationResult> after = plans(&service);
    MatchingService fresh_service(&catalog_);
    register_views(&fresh_service);
    std::vector<OptimizationResult> fresh = plans(&fresh_service);
    for (size_t q = 0; q < queries.size(); ++q) {
      EXPECT_EQ(after[q].plan->ToString(catalog_),
                fresh[q].plan->ToString(catalog_));
      const auto old_scans = view_scans(before[q]);
      const auto new_scans = view_scans(after[q]);
      const auto fresh_scans = view_scans(fresh[q]);
      ASSERT_FALSE(new_scans.empty()) << after[q].plan->ToString(catalog_);
      ASSERT_EQ(new_scans.size(), old_scans.size());
      ASSERT_EQ(new_scans.size(), fresh_scans.size());
      for (size_t i = 0; i < new_scans.size(); ++i) {
        EXPECT_NE(new_scans[i]->rows, old_scans[i]->rows);
        EXPECT_NE(new_scans[i]->cost, old_scans[i]->cost);
        EXPECT_EQ(new_scans[i]->rows, fresh_scans[i]->rows);
        EXPECT_EQ(new_scans[i]->cost, fresh_scans[i]->cost);
      }
    }
    before = std::move(after);
  };

  TableDef& lineitem = catalog_.mutable_table(schema_.lineitem);
  lineitem.set_row_count(lineitem.row_count() * 4 + 3);
  expect_repriced("set_row_count");

  // Load a second copy of every row with a shifted quantity, which moves
  // the row count, the quantity's maximum and its distinct count.
  TableData* data = db_.table(schema_.lineitem);
  const ColumnOrdinal quantity = *lineitem.FindColumn("l_quantity");
  const std::vector<Row> rows = data->rows();
  for (Row row : rows) {
    row[quantity] = Value::Int64(row[quantity].int64() + 100);
    data->AppendRow(std::move(row));
  }
  db_.RefreshStatistics(schema_.lineitem);
  expect_repriced("RefreshStatistics");
}

// The memo enumerates every split of a 32-bit table mask, so a query
// over more tables than Optimize accepts is rejected before any memo
// work, in every build.
TEST_F(OptimizerTest, QueryOverTooManyTablesThrowsPromptly) {
  SpjgBuilder b(&catalog_);
  int first = -1;
  for (int i = 0; i <= Optimizer::kMaxTables; ++i) {
    const int t = b.AddTable("nation");
    if (first < 0) first = t;
    if (i > 0) {
      b.Where(Eq(b.Col(first, "n_nationkey"), b.Col(t, "n_nationkey")));
    }
  }
  b.Output(b.Col(first, "n_name"));
  const SpjgQuery query = b.Build();
  ASSERT_EQ(query.num_tables(), Optimizer::kMaxTables + 1);

  Optimizer optimizer(&catalog_, nullptr);
  QueryContext ctx;
  const auto start = std::chrono::steady_clock::now();
  try {
    (void)optimizer.Optimize(query, ctx);
    ADD_FAILURE() << "a 31-table query must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("30"), std::string::npos)
        << e.what();
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
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
