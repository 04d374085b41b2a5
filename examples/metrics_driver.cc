// Observability demo + CI smoke driver: runs the TPC-H workload of the
// fig3 experiment with full observability on, then dumps
//
//   1. the Prometheus text exposition of every pipeline metric,
//   2. one query's JSON trace (per-stage wall clock, per-candidate
//      verdicts),
//   3. a per-level filter-tree summary with the end-to-end prune ratio
//      (candidates / (probes x views); the paper's §5 finding is that
//      under 0.4% of views survive the filter at the fig3 config).
//
// Knobs:
//   --views N       views to install        (default MVOPT_BENCH_VIEWS
//                                            or 1000, the fig3 config)
//   --queries N     queries to optimize     (default MVOPT_BENCH_QUERIES
//                                            or 200)
//   --mode M        off | counters | full-trace   (default full-trace)
//   --cross-check M off | log | enforce   (default off): replay every
//                   compiled verdict against the generic oracle
//   --selfcheck     validate the exports and mandatory metrics — among
//                   them the two-tier accounting invariant
//                   compiled_hits + compiled_fallbacks == full_tests,
//                   zero fallbacks when every view has a compiled
//                   program, zero filter-level scans (backjoins are
//                   off), and zero cross-check mismatches; exit
//                   nonzero on any failure (the CI metrics smoke step)
//   --quiet         suppress the full exposition/trace dumps

#include <cstdio>
#include <cstring>
#include <string>

#include "bench/harness.h"
#include "observe/observe.h"
#include "observe/trace.h"

namespace {

using namespace mvopt;

int Fail(const std::string& what) {
  std::fprintf(stderr, "selfcheck FAILED: %s\n", what.c_str());
  return 1;
}

/// Mandatory families: present and non-negative (probe/optimize counters
/// must be positive after a workload run).
/// `all_compiled`: every registered view has a compiled match program.
int SelfCheck(const MetricsRegistry& registry, const MatchingStats& stats,
              bool all_compiled) {
  const int64_t invocations = stats.invocations;
  std::string error;
  const std::string prom = registry.WritePrometheus();
  if (!ValidatePrometheusText(prom, &error)) {
    return Fail("exposition does not parse: " + error);
  }
  const std::string json = registry.WriteJson();
  if (!ValidateJson(json, &error)) {
    return Fail("metrics JSON does not parse: " + error);
  }
  struct Required {
    const char* name;
    bool positive;  // must be > 0 (vs merely present and >= 0)
  };
  const Required required[] = {
      {"mvopt_probe_invocations_total", true},
      {"mvopt_probe_candidates_total", false},
      {"mvopt_probe_full_tests_total", false},
      {"mvopt_probe_substitutes_total", false},
      {"mvopt_optimize_total", true},
      {"mvopt_memo_groups_total", true},
      {"mvopt_memo_exprs_total", true},
      {"mvopt_view_matching_invocations_total", true},
  };
  for (const Required& req : required) {
    std::optional<int64_t> v = registry.CounterValue(req.name);
    if (!v.has_value()) {
      return Fail(std::string(req.name) + " is not registered");
    }
    if (*v < 0) return Fail(std::string(req.name) + " is negative");
    if (req.positive && *v == 0) {
      return Fail(std::string(req.name) + " is zero after the workload");
    }
  }
  const char* families[] = {"mvopt_match_rejects_total",
                            "mvopt_filter_level_probes_total",
                            "mvopt_filter_level_visits_total",
                            "mvopt_lifecycle_transitions_total"};
  for (const char* family : families) {
    if (registry.SumFamily(family) < 0) {
      return Fail(std::string(family) + " family sum is negative");
    }
  }
  if (registry.SumFamily("mvopt_filter_level_probes_total") == 0) {
    return Fail("no filter-level probes recorded");
  }
  if (invocations == 0) {
    return Fail("MatchingService recorded no invocations");
  }
  // Two-tier accounting: every candidate that reached the match stage
  // was decided by exactly one tier, in both the service stats and the
  // exported counters, and no compiled verdict disagreed with the
  // oracle.
  if (stats.compiled_hits + stats.compiled_fallbacks != stats.full_tests) {
    return Fail("tier accounting broken: compiled_hits " +
                std::to_string(stats.compiled_hits) + " + fallbacks " +
                std::to_string(stats.compiled_fallbacks) + " != full_tests " +
                std::to_string(stats.full_tests));
  }
  const int64_t hits =
      registry.CounterValue("mvopt_match_compiled_hits_total").value_or(-1);
  const int64_t fallbacks =
      registry.CounterValue("mvopt_match_compiled_fallbacks_total")
          .value_or(-1);
  if (hits != stats.compiled_hits || fallbacks != stats.compiled_fallbacks) {
    return Fail("exported tier counters disagree with the service stats");
  }
  // A view with a program is decided by it, extra-table (§3.2)
  // candidates included: with every view compiled, a fallback means a
  // program failed to reach a verdict.
  if (all_compiled && stats.compiled_fallbacks != 0) {
    return Fail("every view is compiled, yet " +
                std::to_string(stats.compiled_fallbacks) + " of " +
                std::to_string(stats.full_tests) +
                " full tests fell back to the generic matcher");
  }
  // Scans are the full-level walks of the levels backjoins relax; the
  // driver runs with backjoins off, so every level walk must be a
  // subset or superset search.
  const int64_t scans =
      registry.CounterValue("mvopt_filter_scan_searches_total").value_or(-1);
  if (scans != 0) {
    return Fail("backjoins are off, yet mvopt_filter_scan_searches_total is " +
                std::to_string(scans));
  }
  if (stats.cross_check_mismatches != 0) {
    return Fail("cross-check found " +
                std::to_string(stats.cross_check_mismatches) +
                " compiled/generic mismatches");
  }
  std::printf("selfcheck OK: %zu counters, %zu histograms\n",
              registry.num_counters(), registry.num_histograms());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mvopt;
  using namespace mvopt::bench;

  int num_views = EnvInt("MVOPT_BENCH_VIEWS", 1000);
  int num_queries = EnvInt("MVOPT_BENCH_QUERIES", 200);
  ObserveMode mode = ObserveMode::kFullTrace;
  MatchCrossCheck cross_check = MatchCrossCheck::kOff;
  bool selfcheck = false;
  bool quiet = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--views") == 0 && i + 1 < argc) {
      num_views = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--queries") == 0 && i + 1 < argc) {
      num_queries = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--mode") == 0 && i + 1 < argc) {
      const char* m = argv[++i];
      mode = std::strcmp(m, "off") == 0         ? ObserveMode::kOff
             : std::strcmp(m, "counters") == 0  ? ObserveMode::kCountersOnly
                                                : ObserveMode::kFullTrace;
    } else if (std::strcmp(argv[i], "--cross-check") == 0 && i + 1 < argc) {
      const char* m = argv[++i];
      cross_check = std::strcmp(m, "log") == 0       ? MatchCrossCheck::kLog
                    : std::strcmp(m, "enforce") == 0 ? MatchCrossCheck::kEnforce
                                                     : MatchCrossCheck::kOff;
    } else if (std::strcmp(argv[i], "--selfcheck") == 0) {
      selfcheck = true;
    } else if (std::strcmp(argv[i], "--quiet") == 0) {
      quiet = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--views N] [--queries N] "
                   "[--mode off|counters|full-trace] "
                   "[--cross-check off|log|enforce] [--selfcheck] "
                   "[--quiet]\n",
                   argv[0]);
      return 2;
    }
  }

  MetricsRegistry registry;
  ObserveOptions observe;
  observe.mode = mode;
  observe.registry = &registry;

  Workload workload(num_views, num_queries);
  MatchingService::Options sopts;
  sopts.observe = observe;
  sopts.cross_check = cross_check;
  auto service = workload.MakeService(num_views, sopts);

  OptimizerOptions oopts;
  oopts.observe = observe;
  Optimizer optimizer(&workload.catalog(), service.get(), oopts);

  std::shared_ptr<QueryTrace> sample_trace;
  int64_t plans_using_views = 0;
  for (const SpjgQuery& q : workload.queries()) {
    QueryContext ctx;
    OptimizationResult r = optimizer.Optimize(q, ctx);
    if (r.uses_view) ++plans_using_views;
    // Keep the most interesting trace: prefer one whose plan used a view.
    if (r.trace != nullptr &&
        (sample_trace == nullptr || r.uses_view)) {
      sample_trace = r.trace;
      if (r.uses_view) continue;
    }
  }

  const MatchingStats stats = service->stats();
  bool all_compiled = true;
  for (ViewId id = 0; id < service->views().num_views(); ++id) {
    if (service->views().program(id) == nullptr) all_compiled = false;
  }
  if (!quiet) {
    std::printf("# --- Prometheus exposition "
                "---------------------------------------\n");
    std::fputs(registry.WritePrometheus().c_str(), stdout);
    if (sample_trace != nullptr) {
      std::printf("\n# --- sample query trace (JSON) "
                  "-----------------------------------\n");
      std::printf("%s\n", sample_trace->ToJson().c_str());
    }
  }

  std::printf("\n# --- filter-tree effectiveness "
              "-----------------------------------\n");
  std::printf("%-20s %14s %14s\n", "level", "probes", "qualifying");
  for (int i = 0; i < kNumFilterLevels; ++i) {
    const char* level = FilterLevelName(static_cast<FilterLevel>(i));
    const int64_t probes =
        registry.CounterValue("mvopt_filter_level_probes_total",
                              {{"level", level}})
            .value_or(0);
    const int64_t visits =
        registry.CounterValue("mvopt_filter_level_visits_total",
                              {{"level", level}})
            .value_or(0);
    std::printf("%-20s %14lld %14lld\n", level,
                static_cast<long long>(probes),
                static_cast<long long>(visits));
  }
  const double prune_ratio =
      stats.invocations > 0 && num_views > 0
          ? static_cast<double>(stats.candidates) /
                (static_cast<double>(stats.invocations) * num_views)
          : 0.0;
  std::printf("\nviews=%d queries=%d probes=%lld candidates=%lld "
              "full_tests=%lld substitutes=%lld plans_using_views=%lld\n",
              num_views, num_queries,
              static_cast<long long>(stats.invocations),
              static_cast<long long>(stats.candidates),
              static_cast<long long>(stats.full_tests),
              static_cast<long long>(stats.substitutes),
              static_cast<long long>(plans_using_views));
  std::printf("prune ratio (candidates / (probes x views)): %.4f%%\n",
              prune_ratio * 100.0);
  std::printf("match tiers: compiled_hits=%lld compiled_fallbacks=%lld "
              "(hits + fallbacks == full_tests: %s) "
              "cross_check=%s mismatches=%lld\n",
              static_cast<long long>(stats.compiled_hits),
              static_cast<long long>(stats.compiled_fallbacks),
              stats.compiled_hits + stats.compiled_fallbacks ==
                      stats.full_tests
                  ? "yes"
                  : "NO",
              MatchCrossCheckName(cross_check),
              static_cast<long long>(stats.cross_check_mismatches));

  if (selfcheck) {
    if (mode == ObserveMode::kOff) {
      std::fprintf(stderr, "selfcheck requires counters; use --mode "
                           "counters or full-trace\n");
      return 2;
    }
    std::string error;
    if (sample_trace != nullptr &&
        !ValidateJson(sample_trace->ToJson(), &error)) {
      return Fail("trace JSON does not parse: " + error);
    }
    return SelfCheck(registry, stats, all_compiled);
  }
  return 0;
}
