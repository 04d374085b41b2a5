// In-text §5 statistics: filter-tree effectiveness and matching rates.
//
// Paper numbers (1000 random queries over TPC-H):
//   candidate set          0.29% of views at 100 views, 0.36% at 1000
//   candidates that match  15-20%
//   substitutes/invocation 0.04 at 100 views -> 0.59 at 1000
//   invocations/query      ~17.8-17.9
//   substitutes/query      0.7 at 100 views -> 10.5 at 1000
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

  JsonReport report("table_filter_stats");
  report.Caveat(
      "counts only, no timing: every figure is a ratio of candidates, "
      "substitutes and rule invocations over one pass of the query set");
  report.Meta("queries", config.num_queries);
  report.Meta("max_views", config.max_views);

  std::fprintf(stderr,
               "# Table S: filter tree effectiveness (in-text stats, §5)\n");
  std::fprintf(stderr, "%-8s %12s %12s %12s %12s %12s\n", "views",
               "cand-frac%", "pass-rate%", "subst/invoc", "invoc/query",
               "subst/query");

  OptimizerOptions opts;
  for (int n : config.ViewCounts()) {
    if (n == 0) continue;
    auto service = workload.MakeService(n, /*use_filter_tree=*/true);
    SweepPoint p = RunSweepPoint(workload, service.get(), n, opts);
    const double invocations = static_cast<double>(p.invocations);
    // Candidate fraction: candidates per invocation relative to n views.
    double cand_frac =
        100.0 * static_cast<double>(p.candidates) / (invocations * n);
    double pass_rate = p.candidates > 0
                           ? 100.0 * static_cast<double>(p.substitutes) /
                                 static_cast<double>(p.candidates)
                           : 0.0;
    const double subst_per_invocation =
        static_cast<double>(p.substitutes) / invocations;
    const double invocations_per_query = invocations / config.num_queries;
    const double subst_per_query =
        static_cast<double>(p.substitutes) / config.num_queries;
    std::fprintf(stderr, "%-8d %12.3f %12.1f %12.3f %12.1f %12.2f\n", n,
                 cand_frac, pass_rate, subst_per_invocation,
                 invocations_per_query, subst_per_query);
    report.BeginRow();
    report.Field("views", n);
    report.Field("candidate_pct", cand_frac);
    report.Field("pass_rate_pct", pass_rate);
    report.Field("substitutes_per_invocation", subst_per_invocation);
    report.Field("invocations_per_query", invocations_per_query);
    report.Field("substitutes_per_query", subst_per_query);
    report.Field("candidates", p.candidates);
    report.Field("substitutes", p.substitutes);
    report.Field("invocations", p.invocations);
    report.EndRow();
  }
  return 0;
}
