// Observability overhead budget check: the off mode must be free.
//
// Measures per-probe MatchingService::FindSubstitutes latency in four
// configurations:
//
//   baseline     default options (no registry attached)
//   off          ObserveMode::kOff with a registry supplied
//   counters     ObserveMode::kCountersOnly
//   full-trace   ObserveMode::kFullTrace with a QueryTrace per probe
//
// and FAILS (nonzero exit) if the off configuration is more than 2%
// slower than baseline — off mode compiles down to null-pointer checks
// and must not read clocks or collect filter statistics. Counters and
// full-trace numbers are reported for the record, not gated.
//
// Each configuration is timed as min-of-reps over `inner` passes of the
// whole query set, with the configuration order rotated per repetition
// (min + rotation filter scheduler noise and drift). Knobs:
// MVOPT_BENCH_VIEWS (default 400), MVOPT_BENCH_QUERIES (default 300),
// MVOPT_BENCH_REPS (default 15), MVOPT_BENCH_INNER (default 3).
//
// Output: one JSON document on stdout (committed as
// results/observe_overhead.json; see bench/bench_report.h), one row per
// configuration; the table and the verdict go to stderr.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_report.h"
#include "bench/harness.h"
#include "observe/observe.h"
#include "observe/trace.h"

namespace {

using namespace mvopt;
using namespace mvopt::bench;

double TimeOnePass(MatchingService* service,
                   const std::vector<SpjgQuery>& queries, int inner,
                   bool with_trace, int64_t* sink) {
  auto start = std::chrono::steady_clock::now();
  for (int it = 0; it < inner; ++it) {
    for (const SpjgQuery& q : queries) {
      QueryContext ctx;
      if (with_trace) {
        QueryTrace trace;
        ctx.set_trace(&trace);
        auto subs = service->FindSubstitutes(q, ctx);
        *sink += static_cast<int64_t>(subs.size());
      } else {
        auto subs = service->FindSubstitutes(q, ctx);
        *sink += static_cast<int64_t>(subs.size());
      }
    }
  }
  auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(end - start).count();
}

}  // namespace

int main() {
  const int num_views = EnvInt("MVOPT_BENCH_VIEWS", 400);
  const int num_queries = EnvInt("MVOPT_BENCH_QUERIES", 300);
  const int reps = EnvInt("MVOPT_BENCH_REPS", 15);
  const int inner = EnvInt("MVOPT_BENCH_INNER", 3);

  Workload workload(num_views, num_queries);
  int64_t sink = 0;

  struct Config {
    const char* name;
    ObserveMode mode;
    bool attach_registry;
    bool with_trace;
    double seconds = 0;
  };
  Config configs[] = {
      {"baseline", ObserveMode::kOff, false, false},
      {"off", ObserveMode::kOff, true, false},
      {"counters", ObserveMode::kCountersOnly, true, false},
      {"full-trace", ObserveMode::kFullTrace, true, true},
  };

  std::vector<std::unique_ptr<MetricsRegistry>> registries;
  std::vector<std::unique_ptr<MatchingService>> services;
  for (Config& config : configs) {
    MatchingService::Options opts;
    if (config.attach_registry) {
      registries.push_back(std::make_unique<MetricsRegistry>());
      opts.observe.mode = config.mode;
      opts.observe.registry = registries.back().get();
    }
    services.push_back(workload.MakeService(num_views, opts));
    config.seconds = 1e300;
  }
  // Interleave the repetitions across configurations — rotating the order
  // each round — so clock drift, frequency scaling, and cache warm-up hit
  // every mode equally; the first (warm-up) round is discarded by the min.
  const size_t num_configs = services.size();
  for (int r = 0; r < reps + 1; ++r) {
    for (size_t i = 0; i < num_configs; ++i) {
      const size_t c = (i + static_cast<size_t>(r)) % num_configs;
      const double pass = TimeOnePass(services[c].get(), workload.queries(),
                                      inner, configs[c].with_trace, &sink);
      if (r > 0) configs[c].seconds = std::min(configs[c].seconds, pass);
    }
  }

  const double baseline = configs[0].seconds;
  const int probes_per_pass = num_queries * inner;
  const double off_overhead = configs[1].seconds / baseline - 1.0;
  const bool pass = off_overhead <= 0.02;

  JsonReport report("observe_overhead");
  report.Caveat(
      "min-of-reps wall clock of single-threaded probes on a shared host; "
      "vs_baseline is a same-run ratio, absolute times do not carry across "
      "hosts");
  report.Meta("views", num_views);
  report.Meta("queries", num_queries);
  report.Meta("inner", inner);
  report.Meta("reps", reps);
  report.Meta("probes_per_pass", probes_per_pass);
  report.Meta("off_budget", 0.02);
  report.Meta("off_overhead", off_overhead);
  report.Meta("off_within_budget", pass);

  std::fprintf(stderr,
               "# observe overhead: views=%d queries=%d inner=%d reps=%d "
               "(min-of-reps, seconds for %d probes)\n",
               num_views, num_queries, inner, reps, probes_per_pass);
  std::fprintf(stderr, "%-12s %14s %14s %10s\n", "mode", "total(s)",
               "us/probe", "vs-base");
  for (const Config& config : configs) {
    const double us_per_probe = config.seconds * 1e6 / probes_per_pass;
    const double vs_baseline = config.seconds / baseline - 1.0;
    std::fprintf(stderr, "%-12s %14.6f %14.3f %+9.2f%%\n", config.name,
                 config.seconds, us_per_probe, vs_baseline * 100.0);
    report.BeginRow();
    report.Field("mode", config.name);
    report.Field("us_per_probe", us_per_probe);
    report.Field("vs_baseline", vs_baseline);
    report.EndRow();
  }
  report.Finish();

  std::fprintf(stderr, "# off-mode overhead: %+.2f%% (budget: +2%%)  "
               "[sink=%lld]\n",
               off_overhead * 100.0, static_cast<long long>(sink));
  if (!pass) {
    std::fprintf(stderr,
                 "FAIL: off mode is %.2f%% slower than baseline "
                 "(budget 2%%)\n",
                 off_overhead * 100.0);
    return 1;
  }
  std::fprintf(stderr, "PASS: off mode within the 2%% budget\n");
  return 0;
}
