// Deadline sweep: plan quality under a per-query wall-clock budget.
// For 100/300/1000 installed views, optimizes the random query workload
// with deadlines from unlimited down to 100 microseconds and reports how
// often the budget trips, how many plans still use views, and the cost
// of the degraded plans relative to the unbounded optimizer (ratio 1.00
// = no quality loss). A degraded optimization must still return a valid
// plan — the harness asserts that on every query.
//
// Emits one JSON document (bench/bench_report.h) on stdout, one row per
// (views, deadline) point; the human-readable table goes to stderr.
//
// Knobs: MVOPT_BENCH_QUERIES (default 1000).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench/bench_report.h"
#include "bench/harness.h"
#include "common/query_budget.h"

int main() {
  using namespace mvopt;
  using namespace mvopt::bench;
  using std::chrono::microseconds;

  const int num_queries = EnvInt("MVOPT_BENCH_QUERIES", 1000);
  const std::vector<int> view_counts{100, 300, 1000};
  // 0 = no deadline (reference run).
  const std::vector<int64_t> deadlines_us{0, 10000, 3000, 1000, 300, 100};

  Workload workload(1000, num_queries);

  JsonReport report("deadline_sweep");
  report.Caveat(
      "deadlines are wall clock on a shared host: the share of degraded "
      "queries at a deadline moves with the host's speed, and with the "
      "optimizer's; total_s is one single-threaded pass per row");
  report.Meta("queries", num_queries);

  std::fprintf(stderr,
               "# Deadline sweep: plan quality vs per-query time budget\n");
  std::fprintf(stderr, "# %d queries per point\n", num_queries);
  std::fprintf(stderr, "%-8s %12s %10s %10s %12s %12s %12s %12s\n", "views",
               "deadline_us", "degraded", "use_views", "mean_ratio",
               "median_ratio", "total_s", "p_valid");

  for (int n : view_counts) {
    auto service = workload.MakeService(n, /*use_filter_tree=*/true);
    Optimizer optimizer(&workload.catalog(), service.get());
    std::vector<double> reference_costs;
    for (int64_t deadline_us : deadlines_us) {
      int degraded = 0;
      int use_views = 0;
      int valid = 0;
      std::vector<double> ratios;
      auto start = std::chrono::steady_clock::now();
      size_t qi = 0;
      for (const SpjgQuery& q : workload.queries()) {
        QueryContext ctx;
        QueryBudget& budget = ctx.EmplaceBudget();
        if (deadline_us > 0) {
          budget.set_deadline_after(microseconds(deadline_us));
        }
        OptimizationResult r = optimizer.Optimize(q, ctx);
        if (r.plan == nullptr) {
          std::fprintf(stderr, "FATAL: no plan for query %zu\n", qi);
          return 1;
        }
        ++valid;
        if (r.degradation != DegradationReason::kNone) ++degraded;
        if (r.uses_view) ++use_views;
        if (deadline_us == 0) {
          reference_costs.push_back(r.cost);
        } else if (reference_costs[qi] > 0) {
          ratios.push_back(r.cost / reference_costs[qi]);
        }
        ++qi;
      }
      auto end = std::chrono::steady_clock::now();
      double total = std::chrono::duration<double>(end - start).count();
      double mean = 1.0;
      double median = 1.0;
      if (!ratios.empty()) {
        mean = 0;
        for (double r : ratios) mean += r;
        mean /= static_cast<double>(ratios.size());
        std::sort(ratios.begin(), ratios.end());
        median = ratios[ratios.size() / 2];
      }
      std::fprintf(stderr,
                   "%-8d %12lld %9.1f%% %9.1f%% %12.3f %12.3f %12.3f "
                   "%8d/%d\n",
                   n, static_cast<long long>(deadline_us),
                   100.0 * degraded / num_queries,
                   100.0 * use_views / num_queries, mean, median, total,
                   valid, num_queries);
      report.BeginRow();
      report.Field("views", n);
      report.Field("deadline_us", deadline_us);
      report.Field("degraded", degraded);
      report.Field("use_views", use_views);
      report.Field("mean_cost_ratio", mean);
      report.Field("median_cost_ratio", median);
      report.Field("total_s", total);
      report.Field("valid", valid);
      report.EndRow();
    }
  }
  std::fprintf(
      stderr,
      "# ratios: plan cost relative to the unbounded run (>= 1; 1.000 =\n"
      "# the deadline cost no plan quality). The mean is dominated by the\n"
      "# few queries whose view plan beats the base plan by orders of\n"
      "# magnitude; the median shows the typical query. p_valid must\n"
      "# always be full: a tripped budget degrades, it never fails.\n");
  return 0;
}
