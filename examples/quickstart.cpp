// Quickstart: define a materialized view over TPC-H, let the optimizer
// rewrite a query to use it, and execute both plans.
//
// Mirrors the paper's Example 1: an aggregation view over part ⋈ lineitem
// with a range and a LIKE predicate, a count_big(*) column and a SUM.

#include <chrono>
#include <cstdio>

#include "engine/database.h"
#include "index/matching_service.h"
#include "optimizer/optimizer.h"
#include "optimizer/plan_exec.h"
#include "tpch/datagen.h"
#include "tpch/schema.h"

using namespace mvopt;

namespace {

double Seconds(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

int main() {
  // 1. Catalog + data (synthetic TPC-H at a small scale factor).
  Catalog catalog;
  tpch::Schema schema = tpch::BuildSchema(&catalog, 0.002);
  Database db(&catalog);
  tpch::DataGenOptions dg;
  dg.scale_factor = 0.002;
  tpch::GenerateData(&db, schema, dg);
  std::printf("TPC-H loaded: %lld lineitem rows\n\n",
              static_cast<long long>(
                  catalog.table(schema.lineitem).row_count()));

  // 2. Create the paper's Example 1 view:
  //      create view v1 as
  //      select p_partkey, p_name, p_retailprice, count_big(*) as cnt,
  //             sum(l_extendedprice * l_quantity) as gross_revenue
  //      from lineitem, part
  //      where p_partkey < 1000 and p_name like '%steel%'
  //        and p_partkey = l_partkey
  //      group by p_partkey, p_name, p_retailprice
  MatchingService service(&catalog);
  SpjgBuilder vb(&catalog);
  int l = vb.AddTable("lineitem");
  int p = vb.AddTable("part");
  vb.Where(Expr::MakeCompare(CompareOp::kLt, vb.Col(p, "p_partkey"),
                             Expr::MakeLiteral(Value::Int64(1000))));
  vb.Where(Expr::MakeLike(vb.Col(p, "p_name"), "%steel%"));
  vb.Where(Expr::MakeCompare(CompareOp::kEq, vb.Col(p, "p_partkey"),
                             vb.Col(l, "l_partkey")));
  vb.Output(vb.Col(p, "p_partkey"));
  vb.Output(vb.Col(p, "p_name"));
  vb.Output(vb.Col(p, "p_retailprice"));
  vb.Output(Expr::MakeAggregate(AggKind::kCountStar, nullptr), "cnt");
  vb.Output(Expr::MakeAggregate(
                AggKind::kSum,
                Expr::MakeArith(ArithOp::kMul, vb.Col(l, "l_extendedprice"),
                                vb.Col(l, "l_quantity"))),
            "gross_revenue");
  vb.GroupBy(vb.Col(p, "p_partkey"));
  vb.GroupBy(vb.Col(p, "p_name"));
  vb.GroupBy(vb.Col(p, "p_retailprice"));

  std::string error;
  ViewDefinition* v1 = service.AddView("v1", vb.Build(), &error);
  if (v1 == nullptr) {
    std::printf("view rejected: %s\n", error.c_str());
    return 1;
  }
  // create unique clustered index v1_cidx on v1(p_partkey)
  IndexDef cidx;
  cidx.name = "v1_cidx";
  cidx.key_columns = {0};
  cidx.unique = false;  // p_partkey alone is the leading key here
  v1->set_clustered_index(cidx);
  db.MaterializeView(v1);
  std::printf("created view v1:\n%s\n\nmaterialized: %lld rows\n\n",
              v1->query().ToSql(catalog).c_str(),
              static_cast<long long>(
                  catalog.table(v1->materialized_table()).row_count()));

  // 3. A narrower query against the base tables.
  SpjgBuilder qb(&catalog);
  int ql = qb.AddTable("lineitem");
  int qp = qb.AddTable("part");
  qb.Where(Expr::MakeCompare(CompareOp::kLt, qb.Col(qp, "p_partkey"),
                             Expr::MakeLiteral(Value::Int64(500))));
  qb.Where(Expr::MakeLike(qb.Col(qp, "p_name"), "%steel%"));
  qb.Where(Expr::MakeCompare(CompareOp::kEq, qb.Col(qp, "p_partkey"),
                             qb.Col(ql, "l_partkey")));
  qb.Output(qb.Col(qp, "p_partkey"));
  qb.Output(Expr::MakeAggregate(
                AggKind::kSum,
                Expr::MakeArith(ArithOp::kMul, qb.Col(ql, "l_extendedprice"),
                                qb.Col(ql, "l_quantity"))),
            "revenue");
  qb.GroupBy(qb.Col(qp, "p_partkey"));
  SpjgQuery query = qb.Build();
  std::printf("query:\n%s\n\n", query.ToSql(catalog).c_str());

  // 4. Optimize with and without the view. The QueryContext carries the
  // per-query knobs (deadline budget, staleness tolerance, trace); a
  // default-constructed one means no deadline and fresh views only.
  // Optimize resets it at entry, so one context serves both calls.
  Optimizer with_views(&catalog, &service);
  Optimizer without_views(&catalog, nullptr);
  QueryContext ctx;
  ctx.EmplaceBudget().set_deadline_after(std::chrono::seconds(5));
  OptimizationResult rewritten = with_views.Optimize(query, ctx);
  OptimizationResult baseline = without_views.Optimize(query, ctx);
  std::printf("plan with view matching (cost %.0f):\n%s\n",
              rewritten.cost, rewritten.plan->ToString(catalog).c_str());
  std::printf("plan without views (cost %.0f):\n%s\n", baseline.cost,
              baseline.plan->ToString(catalog).c_str());

  // 5. Execute both; results must agree, the view plan should be faster.
  PlanExecutor exec(&db);
  auto t0 = std::chrono::steady_clock::now();
  auto rows_view = exec.Execute(rewritten.plan);
  auto t1 = std::chrono::steady_clock::now();
  auto rows_base = exec.Execute(baseline.plan);
  auto t2 = std::chrono::steady_clock::now();
  std::printf("rows: %zu (view plan) vs %zu (base plan)\n",
              rows_view.size(), rows_base.size());
  std::printf("execution: %.4fs via view, %.4fs via base tables (%.1fx)\n",
              Seconds(t0, t1), Seconds(t1, t2),
              Seconds(t1, t2) / std::max(1e-9, Seconds(t0, t1)));

  // 6. The two-tier match stage, observed from the outside: every
  // candidate that reached the match stage was decided by exactly one
  // tier — the view's compiled MatchProgram, or the generic oracle for a
  // view without one.
  const MatchingStats stats = service.stats();
  std::printf("\nmatch tiers: %lld candidates = %lld compiled + %lld "
              "generic (invariant %s)\n",
              static_cast<long long>(stats.full_tests),
              static_cast<long long>(stats.compiled_hits),
              static_cast<long long>(stats.compiled_fallbacks),
              stats.compiled_hits + stats.compiled_fallbacks ==
                      stats.full_tests
                  ? "holds"
                  : "VIOLATED");
  return stats.compiled_hits + stats.compiled_fallbacks == stats.full_tests
             ? 0
             : 1;
}
