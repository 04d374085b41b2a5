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
// A cell swings by a few percent from pass to pass on a shared host,
// which is as large as the gap itself. So the Alt and NoAlt passes over
// one service run interleaved, in alternating order, and the gap is the
// median of the per-repetition differences: drift hits both halves of a
// pair alike.
//
// Emits one JSON document (bench/bench_report.h) on stdout, one row per
// view count; the human-readable table goes to stderr.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_report.h"
#include "bench/harness.h"

namespace {

/// The value at quantile `q` (0.25, 0.5, 0.75) of `v`, nearest rank.
double Quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return v[static_cast<size_t>(q * static_cast<double>(v.size() - 1) + 0.5)];
}

}  // namespace

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
      "substitute_costing_s is the median of five paired Alt&Filter - "
      "NoAlt&Filter differences, with their quartiles; compare shapes "
      "and gaps, not single cells");
  report.Meta("queries", config.num_queries);
  report.Meta("max_views", config.max_views);
  report.Meta("passes_per_cell", kPasses);

  std::fprintf(stderr, "# Figure 2: optimization time vs number of views\n");
  std::fprintf(stderr, "# %d queries per point (paper: 1000)\n",
               config.num_queries);
  std::fprintf(stderr, "%-8s %14s %14s %14s %14s %14s\n", "views",
               "Alt&Filter", "NoAlt&Filter", "Alt&NoFilter", "NoAlt&NoFilter",
               "paired-gap");

  for (int n : config.ViewCounts()) {
    double secs[4] = {0, 0, 0, 0};
    std::vector<double> filter_gaps;
    int idx = 0;
    for (bool filter : {true, false}) {
      auto service = workload.MakeService(n, filter);
      OptimizerOptions alt;
      OptimizerOptions noalt;
      noalt.produce_substitutes = false;
      std::vector<double> alt_s;
      std::vector<double> noalt_s;
      std::vector<double> gaps;
      for (int pass = 0; pass < kPasses; ++pass) {
        // Alternate which half of the pair runs first.
        const bool alt_first = pass % 2 == 0;
        const double first =
            RunSweepPoint(workload, service.get(), n, alt_first ? alt : noalt)
                .total_seconds;
        const double second =
            RunSweepPoint(workload, service.get(), n, alt_first ? noalt : alt)
                .total_seconds;
        alt_s.push_back(alt_first ? first : second);
        noalt_s.push_back(alt_first ? second : first);
        gaps.push_back(alt_s.back() - noalt_s.back());
      }
      secs[idx * 2] = Quantile(alt_s, 0.5);
      secs[idx * 2 + 1] = Quantile(noalt_s, 0.5);
      if (filter) filter_gaps = gaps;
      ++idx;
    }
    std::fprintf(stderr, "%-8d %14.3f %14.3f %14.3f %14.3f %14.3f\n", n,
                 secs[0], secs[1], secs[2], secs[3],
                 Quantile(filter_gaps, 0.5));
    report.BeginRow();
    report.Field("views", n);
    report.Field("alt_filter_s", secs[0]);
    report.Field("noalt_filter_s", secs[1]);
    report.Field("alt_nofilter_s", secs[2]);
    report.Field("noalt_nofilter_s", secs[3]);
    report.Field("substitute_costing_s", Quantile(filter_gaps, 0.5));
    report.Field("substitute_costing_p25_s", Quantile(filter_gaps, 0.25));
    report.Field("substitute_costing_p75_s", Quantile(filter_gaps, 0.75));
    report.EndRow();
  }
  return 0;
}
