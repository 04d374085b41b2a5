// Figure 3 reproduction: total increase in optimization time (relative to
// zero views) and the portion of it spent inside the view-matching rule,
// as a function of the number of views. Paper shape: at 1000 views about
// half of the increase originates in view matching; with few views almost
// all of it does (most invocations produce no substitutes, so no extra
// optimizer work follows).
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

  JsonReport report("fig3_matching_time");
  report.Caveat(
      "seconds are the wall clock of a single-threaded pass over the "
      "query set (filter tree on, substitutes produced), the median of "
      "five passes per row, on a shared host; the increase is relative "
      "to the 0-view row");
  report.Meta("queries", config.num_queries);
  report.Meta("max_views", config.max_views);
  report.Meta("passes_per_cell", kPasses);

  std::fprintf(stderr,
               "# Figure 3: optimization-time increase and view-matching "
               "time\n");
  std::fprintf(stderr, "%-8s %16s %18s %12s\n", "views", "total-increase(s)",
               "view-matching(s)", "vm-share");

  OptimizerOptions opts;
  double baseline = -1;
  for (int n : config.ViewCounts()) {
    auto service = workload.MakeService(n, /*use_filter_tree=*/true);
    SweepPoint p =
        RunSweepPointMedian(workload, service.get(), n, opts, kPasses);
    if (baseline < 0) baseline = p.total_seconds;
    double increase = p.total_seconds - baseline;
    double share = increase > 0 ? p.view_matching_seconds / increase : 0;
    std::fprintf(stderr, "%-8d %16.3f %18.3f %12.2f\n", n, increase,
                 p.view_matching_seconds, share);
    report.BeginRow();
    report.Field("views", n);
    report.Field("total_s", p.total_seconds);
    report.Field("increase_s", increase);
    report.Field("view_matching_s", p.view_matching_seconds);
    report.Field("vm_share", share);
    report.EndRow();
  }
  return 0;
}
