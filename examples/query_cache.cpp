// Cached query results as temporary materialized views — the paper's
// introduction motivates scalability with exactly this scenario: "A smart
// system might also cache and reuse results of previously computed
// queries. Cached results can be treated as temporary materialized views,
// easily resulting in thousands of materialized views."
//
// This example runs a stream of random queries; every answered query is
// materialized and registered as a view, so later (narrower) queries can
// be answered from the cache. Prints the running hit rate and the
// filter-tree statistics at the end.

#include <cstdio>
#include <string>

#include "engine/database.h"
#include "index/matching_service.h"
#include "optimizer/optimizer.h"
#include "optimizer/plan_exec.h"
#include "tpch/datagen.h"
#include "tpch/schema.h"
#include "tpch/workload.h"

using namespace mvopt;

int main(int argc, char** argv) {
  const int num_queries = argc > 1 ? std::atoi(argv[1]) : 300;

  Catalog catalog;
  tpch::Schema schema = tpch::BuildSchema(&catalog, 0.001);
  Database db(&catalog);
  tpch::DataGenOptions dg;
  dg.scale_factor = 0.001;
  tpch::GenerateData(&db, schema, dg);

  MatchingService service(&catalog);
  Optimizer optimizer(&catalog, &service);
  PlanExecutor exec(&db);

  // Queries come from a generator whose cardinality band widens over the
  // view band so earlier results often contain later ones.
  std::vector<TableId> base_tables = {
      schema.region,   schema.nation,   schema.supplier, schema.part,
      schema.partsupp, schema.customer, schema.orders,   schema.lineitem};
  tpch::WorkloadOptions wopts;
  wopts.query_card_lo = 0.05;
  wopts.query_card_hi = 0.60;
  tpch::WorkloadGenerator gen(&catalog, base_tables, 2024, wopts);

  int hits = 0;
  int cached = 0;
  for (int i = 0; i < num_queries; ++i) {
    SpjgQuery query = gen.GenerateQuery();
    QueryContext ctx;
    OptimizationResult result = optimizer.Optimize(query, ctx);
    if (result.plan == nullptr) continue;
    if (result.uses_view) ++hits;
    exec.Execute(result.plan);

    // Cache this result as a temporary materialized view (only queries
    // that qualify as indexable views — aggregation queries need their
    // count(*) column, which the generator always includes).
    std::string error;
    ViewDefinition* v = service.AddView("cache_" + std::to_string(i), query,
                                        &error);
    if (v != nullptr) {
      db.MaterializeView(v);
      ++cached;
    }
    if ((i + 1) % 50 == 0) {
      std::printf("after %4d queries: %4d cached results, cache hit rate "
                  "%.1f%%\n",
                  i + 1, cached, 100.0 * hits / (i + 1));
    }
  }

  const MatchingStats& stats = service.stats();
  std::printf("\nview-matching rule: %lld invocations, %lld candidates "
              "examined (%.2f%% of views on average), %lld substitutes\n",
              static_cast<long long>(stats.invocations),
              static_cast<long long>(stats.candidates),
              stats.invocations > 0 && cached > 0
                  ? 100.0 * static_cast<double>(stats.candidates) /
                        (static_cast<double>(stats.invocations) * cached)
                  : 0.0,
              static_cast<long long>(stats.substitutes));
  std::printf("final cache: %d materialized result views; overall hit rate "
              "%.1f%%\n",
              cached, 100.0 * hits / num_queries);
  return 0;
}
