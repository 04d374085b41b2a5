// Figure 4 reproduction: how many of the final execution plans use at
// least one materialized view, as a function of the number of views.
// Paper shape: diminishing returns — about 60% of queries already use a
// view at 200 views, rising to about 87% at 1000.
//
// Emits one JSON document (bench/bench_report.h) on stdout, one row per
// view count; the human-readable table goes to stderr.

#include <cstdio>

#include "bench/bench_report.h"
#include "bench/harness.h"

int main() {
  using namespace mvopt;
  using namespace mvopt::bench;

  SweepConfig config;
  Workload workload(config.max_views, config.num_queries);

  JsonReport report("fig4_plans_using_views");
  report.Caveat(
      "plan counts are deterministic for a given seed and query count; "
      "they do not depend on the host");
  report.Meta("queries", config.num_queries);
  report.Meta("max_views", config.max_views);

  std::fprintf(stderr, "# Figure 4: final plans using materialized views\n");
  std::fprintf(stderr, "%-8s %12s %10s\n", "views", "plans", "fraction");

  OptimizerOptions opts;
  for (int n : config.ViewCounts()) {
    auto service = workload.MakeService(n, /*use_filter_tree=*/true);
    SweepPoint p = RunSweepPoint(workload, service.get(), n, opts);
    const double fraction = static_cast<double>(p.plans_using_views) /
                            static_cast<double>(config.num_queries);
    std::fprintf(stderr, "%-8d %12lld %10.2f\n", n,
                 static_cast<long long>(p.plans_using_views), fraction);
    report.BeginRow();
    report.Field("views", n);
    report.Field("plans_using_views", p.plans_using_views);
    report.Field("fraction", fraction);
    report.EndRow();
  }
  return 0;
}
