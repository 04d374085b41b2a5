// The paper's Example 4 end-to-end: an aggregation view grouped by
// o_custkey answers a query that groups by c_nationkey — but only because
// the optimizer also generates the pre-aggregated alternative
//
//   select c_nationkey, sum(rev)
//   from customer, (select o_custkey, sum(...) as rev
//                   from lineitem, orders
//                   where l_orderkey = o_orderkey
//                   group by o_custkey) as iq
//   where c_custkey = o_custkey group by c_nationkey
//
// on whose inner query the view-matching rule fires. "This is a case
// where integration with the optimizer helps."

#include <chrono>
#include <cstdio>

#include "engine/database.h"
#include "index/matching_service.h"
#include "optimizer/optimizer.h"
#include "optimizer/plan_exec.h"
#include "tpch/datagen.h"
#include "tpch/schema.h"

using namespace mvopt;

int main() {
  Catalog catalog;
  tpch::Schema schema = tpch::BuildSchema(&catalog, 0.002);
  Database db(&catalog);
  tpch::DataGenOptions dg;
  dg.scale_factor = 0.002;
  tpch::GenerateData(&db, schema, dg);

  MatchingService service(&catalog);

  // create view v4: revenue per customer.
  SpjgBuilder vb(&catalog);
  int l = vb.AddTable("lineitem");
  int o = vb.AddTable("orders");
  vb.Where(Expr::MakeCompare(CompareOp::kEq, vb.Col(l, "l_orderkey"),
                             vb.Col(o, "o_orderkey")));
  vb.Output(vb.Col(o, "o_custkey"));
  vb.Output(Expr::MakeAggregate(AggKind::kCountStar, nullptr), "cnt");
  vb.Output(Expr::MakeAggregate(
                AggKind::kSum,
                Expr::MakeArith(ArithOp::kMul, vb.Col(l, "l_quantity"),
                                vb.Col(l, "l_extendedprice"))),
            "revenue");
  vb.GroupBy(vb.Col(o, "o_custkey"));
  std::string error;
  ViewDefinition* v4 = service.AddView("v4", vb.Build(), &error);
  if (v4 == nullptr) {
    std::printf("rejected: %s\n", error.c_str());
    return 1;
  }
  IndexDef cidx;
  cidx.name = "v4_cidx";
  cidx.key_columns = {0};
  cidx.unique = true;
  v4->set_clustered_index(cidx);
  db.MaterializeView(v4);
  std::printf("view v4 materialized: %lld rows\n\n",
              static_cast<long long>(
                  catalog.table(v4->materialized_table()).row_count()));

  // Query: revenue per nation (requires joining customer).
  SpjgBuilder qb(&catalog);
  int ql = qb.AddTable("lineitem");
  int qo = qb.AddTable("orders");
  int qc = qb.AddTable("customer");
  qb.Where(Expr::MakeCompare(CompareOp::kEq, qb.Col(ql, "l_orderkey"),
                             qb.Col(qo, "o_orderkey")));
  qb.Where(Expr::MakeCompare(CompareOp::kEq, qb.Col(qo, "o_custkey"),
                             qb.Col(qc, "c_custkey")));
  qb.Output(qb.Col(qc, "c_nationkey"));
  qb.Output(Expr::MakeAggregate(
                AggKind::kSum,
                Expr::MakeArith(ArithOp::kMul, qb.Col(ql, "l_quantity"),
                                qb.Col(ql, "l_extendedprice"))),
            "revenue");
  qb.GroupBy(qb.Col(qc, "c_nationkey"));
  SpjgQuery query = qb.Build();
  std::printf("query:\n%s\n\n", query.ToSql(catalog).c_str());

  Optimizer optimizer(&catalog, &service);
  QueryContext ctx;
  OptimizationResult result = optimizer.Optimize(query, ctx);
  std::printf("best plan (cost %.0f, uses view: %s):\n%s\n", result.cost,
              result.uses_view ? "yes" : "no",
              result.plan->ToString(catalog).c_str());
  std::printf("view-matching rule: %lld invocations, %lld substitutes\n\n",
              static_cast<long long>(
                  result.metrics.view_matching_invocations),
              static_cast<long long>(result.metrics.substitutes_produced));

  OptimizerOptions no_views_opts;
  no_views_opts.enable_view_matching = false;
  Optimizer baseline(&catalog, &service, no_views_opts);
  OptimizationResult base = baseline.Optimize(query, ctx);
  std::printf("baseline plan (cost %.0f):\n%s\n", base.cost,
              base.plan->ToString(catalog).c_str());

  PlanExecutor exec(&db);
  auto t0 = std::chrono::steady_clock::now();
  auto rows1 = exec.Execute(result.plan);
  auto t1 = std::chrono::steady_clock::now();
  auto rows2 = exec.Execute(base.plan);
  auto t2 = std::chrono::steady_clock::now();
  double s1 = std::chrono::duration<double>(t1 - t0).count();
  double s2 = std::chrono::duration<double>(t2 - t1).count();
  std::printf("%zu nations; %.4fs via v4 vs %.4fs from base (%.1fx)\n",
              rows1.size(), s1, s2, s2 / std::max(1e-9, s1));
  if (rows1.size() != rows2.size()) {
    std::printf("ERROR: result sizes differ!\n");
    return 1;
  }
  return 0;
}
