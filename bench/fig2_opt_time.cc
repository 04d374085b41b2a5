// Figure 2 reproduction: total optimization time for the random query
// workload as a function of the number of materialized views, for the
// four series of the paper:
//   Alt&Filter     substitutes produced, filter tree enabled
//   NoAlt&Filter   view matching runs but produces no substitutes
//   Alt&NoFilter   substitutes produced, every view checked
//   NoAlt&NoFilter no substitutes, every view checked
//
// The paper's shape: optimization time grows linearly with the number of
// views; with the filter tree the increase at 1000 views is ~60%, without
// it ~110%. The Alt&Filter − NoAlt&Filter gap is the cost of optimizing
// the substitutes the rule produces.
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
  constexpr int kPasses = 5;  // each cell: the median of five passes

  JsonReport report("fig2_opt_time");
  report.Caveat(
      "seconds are the wall clock of a single-threaded pass over the "
      "query set, the median of five passes per cell, on a shared host; "
      "compare shapes and gaps, not single cells");
  report.Meta("queries", config.num_queries);
  report.Meta("max_views", config.max_views);
  report.Meta("passes_per_cell", kPasses);

  std::fprintf(stderr, "# Figure 2: optimization time vs number of views\n");
  std::fprintf(stderr, "# %d queries per point (paper: 1000)\n",
               config.num_queries);
  std::fprintf(stderr, "%-8s %14s %14s %14s %14s\n", "views", "Alt&Filter",
               "NoAlt&Filter", "Alt&NoFilter", "NoAlt&NoFilter");

  for (int n : config.ViewCounts()) {
    double secs[4] = {0, 0, 0, 0};
    int idx = 0;
    for (bool filter : {true, false}) {
      auto service = workload.MakeService(n, filter);
      for (bool alt : {true, false}) {
        OptimizerOptions opts;
        opts.produce_substitutes = alt;
        SweepPoint p =
            RunSweepPointMedian(workload, service.get(), n, opts, kPasses);
        secs[idx * 2 + (alt ? 0 : 1)] = p.total_seconds;
      }
      ++idx;
    }
    std::fprintf(stderr, "%-8d %14.3f %14.3f %14.3f %14.3f\n", n, secs[0],
                 secs[1], secs[2], secs[3]);
    report.BeginRow();
    report.Field("views", n);
    report.Field("alt_filter_s", secs[0]);
    report.Field("noalt_filter_s", secs[1]);
    report.Field("alt_nofilter_s", secs[2]);
    report.Field("noalt_nofilter_s", secs[3]);
    report.Field("substitute_costing_s", secs[0] - secs[1]);
    report.EndRow();
  }
  return 0;
}
