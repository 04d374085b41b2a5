// Two-tier matching throughput on the fig-3 workload configuration (the
// §5 random view/query recipe at MVOPT_BENCH_VIEWS/MVOPT_BENCH_QUERIES).
//
// Three measurements:
//
//  1. Match kernel (the 2x gate): every (query, view) candidate pushed
//     straight through the matcher — the generic tier runs
//     ViewMatcher::Match per candidate (rebuilding the query-side
//     conjunct classification, equivalence classes, ranges and residuals
//     each time); the compiled tier builds ONE MatchProbeContext per
//     query and runs each candidate through its MatchProgram's flat
//     instruction stream (views without a program go to the oracle).
//     Candidates/sec, compiled vs generic.
//
//  2. End-to-end FindSubstitutes with the filter tree off (every view a
//     candidate), in three service modes — generic, compiled, and
//     compiled under cross-check=enforce. The end-to-end ratio is
//     necessarily smaller than the kernel ratio (stage bookkeeping is
//     tier-independent), and enforce runs BOTH tiers, so it documents
//     the price of continuous oracle replay.
//
//  3. The tiers where the rule runs: the memo-group signatures the
//     optimizer's view-matching rule probes on the workload (captured
//     through a recording SubstituteSource), replayed through
//     FindSubstitutes with the filter tree ON, generic vs compiled. Group
//     signatures have fewer tables than the views covering them, so this
//     is where §3.2 extra-table candidates show up; the rows report the
//     fallback count and the time each tier spent deciding candidates.
//
// Output: JSON document on stdout (committed as
// results/match_program.json; see bench/bench_report.h), progress on
// stderr. Knobs: MVOPT_BENCH_VIEWS (default 1000), MVOPT_BENCH_QUERIES
// (default 1000), MVOPT_BENCH_REPS (timed passes, best kept; default 3).

#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_report.h"
#include "bench/harness.h"
#include "observe/metrics.h"
#include "rewrite/match_program.h"

int main() {
  using namespace mvopt;
  using namespace mvopt::bench;

  const int num_views = EnvInt("MVOPT_BENCH_VIEWS", 1000);
  const int num_queries = EnvInt("MVOPT_BENCH_QUERIES", 1000);
  const int reps = EnvInt("MVOPT_BENCH_REPS", 3);
  Workload workload(num_views, num_queries);

  JsonReport report("match_program");
  report.Caveat("one-thread wall clock on one host: the compiled-vs-generic "
                "ratios are the meaningful numbers, absolute candidates/sec "
                "are not comparable across hosts");
  report.Meta("views", num_views);
  report.Meta("queries", num_queries);
  report.Meta("timed_passes", reps);

  // ---- phase 1: the match kernel -----------------------------------------
  const MatchOptions mopts;
  ViewMatcher matcher(&workload.catalog(), mopts);
  ViewCatalog views(&workload.catalog());
  {
    auto service = workload.MakeService(num_views, /*use_filter_tree=*/false);
    // Reuse the service's registered definitions so both phases see the
    // identical catalog (AddView validation included).
    for (ViewId id = 0; id < service->views().num_views(); ++id) {
      std::string error;
      if (views.AddView(service->views().view(id).name(),
                        service->views().view(id).query(), &error) == nullptr) {
        std::fprintf(stderr, "re-registration failed: %s\n", error.c_str());
        return 1;
      }
    }
  }
  std::vector<std::shared_ptr<const MatchProgram>> programs;
  for (ViewId id = 0; id < views.num_views(); ++id) {
    programs.push_back(
        CompileMatchProgram(workload.catalog(), views.view(id), mopts));
  }

  const int64_t kernel_candidates =
      static_cast<int64_t>(num_queries) * views.num_views();
  int64_t generic_accepts = 0;
  double generic_kernel = -1;
  for (int rep = 0; rep < reps; ++rep) {
    int64_t accepts = 0;
    auto start = std::chrono::steady_clock::now();
    for (const SpjgQuery& q : workload.queries()) {
      for (ViewId id = 0; id < views.num_views(); ++id) {
        if (matcher.Match(q, views.view(id)).ok()) ++accepts;
      }
    }
    auto stop = std::chrono::steady_clock::now();
    double s = std::chrono::duration<double>(stop - start).count();
    if (generic_kernel < 0 || s < generic_kernel) generic_kernel = s;
    generic_accepts = accepts;
  }

  int64_t compiled_accepts = 0, hits = 0, fallbacks = 0;
  double compiled_kernel = -1;
  MatchProgramScratch scratch;
  for (int rep = 0; rep < reps; ++rep) {
    int64_t accepts = 0;
    hits = fallbacks = 0;
    auto start = std::chrono::steady_clock::now();
    for (const SpjgQuery& q : workload.queries()) {
      MatchProbeContext pctx =
          BuildMatchProbeContext(workload.catalog(), q, mopts);
      for (ViewId id = 0; id < views.num_views(); ++id) {
        const MatchProgram* program = programs[id].get();
        bool ok;
        if (program != nullptr) {
          ++hits;
          ok = ExecuteMatchProgram(*program, pctx, scratch).ok();
        } else {
          ++fallbacks;
          ok = matcher.Match(q, views.view(id)).ok();
        }
        if (ok) ++accepts;
      }
    }
    auto stop = std::chrono::steady_clock::now();
    double s = std::chrono::duration<double>(stop - start).count();
    if (compiled_kernel < 0 || s < compiled_kernel) compiled_kernel = s;
    compiled_accepts = accepts;
  }
  if (compiled_accepts != generic_accepts) {
    std::fprintf(stderr, "TIER DIVERGENCE: kernel accepts %lld vs %lld\n",
                 static_cast<long long>(compiled_accepts),
                 static_cast<long long>(generic_accepts));
    return 1;
  }

  const double generic_cps = kernel_candidates / generic_kernel;
  const double compiled_cps = kernel_candidates / compiled_kernel;
  for (int pass = 0; pass < 2; ++pass) {
    const bool compiled = pass == 1;
    report.BeginRow();
    report.Field("phase", "match_kernel");
    report.Field("mode", compiled ? "compiled" : "generic");
    report.Field("seconds", compiled ? compiled_kernel : generic_kernel);
    report.Field("candidates", kernel_candidates);
    report.Field("candidates_per_sec", compiled ? compiled_cps : generic_cps);
    report.Field("accepts", generic_accepts);
    report.Field("compiled_hits", compiled ? hits : 0);
    report.Field("compiled_fallbacks",
                 compiled ? fallbacks : kernel_candidates);
    report.Field("vs_generic", compiled ? compiled_cps / generic_cps : 1.0);
    report.EndRow();
    std::fprintf(stderr, "kernel %-9s %8.3fs  %12.0f candidates/sec (%.2fx)\n",
                 compiled ? "compiled" : "generic",
                 compiled ? compiled_kernel : generic_kernel,
                 compiled ? compiled_cps : generic_cps,
                 compiled ? compiled_cps / generic_cps : 1.0);
  }

  // ---- phase 2: end-to-end FindSubstitutes -------------------------------
  struct ModeSpec {
    const char* name;
    bool compile;
    MatchCrossCheck cross_check;
  };
  const ModeSpec modes[] = {
      {"generic", false, MatchCrossCheck::kOff},
      {"compiled", true, MatchCrossCheck::kOff},
      {"compiled+enforce", true, MatchCrossCheck::kEnforce},
  };

  double e2e_generic_cps = -1;
  int64_t e2e_generic_subs = -1;
  for (const ModeSpec& mode : modes) {
    MatchingService::Options opts;
    opts.use_filter_tree = false;
    opts.compile_match_programs = mode.compile;
    opts.cross_check = mode.cross_check;
    auto service = workload.MakeService(num_views, opts);

    auto run_once = [&] {
      for (const SpjgQuery& q : workload.queries()) {
        QueryContext ctx;
        (void)service->FindSubstitutes(q, ctx);
      }
    };
    run_once();  // warm-up
    service->ResetStats();
    double seconds = -1;
    MatchingStats stats;
    for (int rep = 0; rep < reps; ++rep) {
      if (rep > 0) service->ResetStats();
      auto start = std::chrono::steady_clock::now();
      run_once();
      auto stop = std::chrono::steady_clock::now();
      double s = std::chrono::duration<double>(stop - start).count();
      if (seconds < 0 || s < seconds) {
        seconds = s;
        stats = service->stats();
      }
    }

    const double cps = stats.full_tests / seconds;
    if (e2e_generic_cps < 0) {
      e2e_generic_cps = cps;
      e2e_generic_subs = stats.substitutes;
    } else if (stats.substitutes != e2e_generic_subs) {
      // The tiers must agree probe-for-probe; a different substitute
      // total means the compiled tier diverged from the oracle.
      std::fprintf(stderr,
                   "TIER DIVERGENCE: mode=%s substitutes=%lld generic=%lld\n",
                   mode.name, static_cast<long long>(stats.substitutes),
                   static_cast<long long>(e2e_generic_subs));
      return 1;
    }
    if (stats.cross_check_mismatches != 0) {
      std::fprintf(stderr, "CROSS-CHECK MISMATCHES: mode=%s count=%lld\n",
                   mode.name,
                   static_cast<long long>(stats.cross_check_mismatches));
      return 1;
    }

    report.BeginRow();
    report.Field("phase", "find_substitutes");
    report.Field("mode", mode.name);
    report.Field("seconds", seconds);
    report.Field("candidates", stats.full_tests);
    report.Field("candidates_per_sec", cps);
    report.Field("substitutes", stats.substitutes);
    report.Field("compiled_hits", stats.compiled_hits);
    report.Field("compiled_fallbacks", stats.compiled_fallbacks);
    report.Field("vs_generic",
                 e2e_generic_cps > 0 ? cps / e2e_generic_cps : 0.0);
    report.EndRow();
    std::fprintf(stderr, "e2e    %-17s %8.3fs  %12.0f candidates/sec (%.2fx)\n",
                 mode.name, seconds, cps,
                 e2e_generic_cps > 0 ? cps / e2e_generic_cps : 0.0);
  }

  // ---- phase 3: group signatures, filter tree on --------------------------
  std::vector<SpjgQuery> signatures;
  {
    auto service = workload.MakeService(num_views, /*use_filter_tree=*/true);
    RecordingSource recorder(service.get());
    Optimizer optimizer(&workload.catalog(), &recorder);
    for (const SpjgQuery& q : workload.queries()) {
      QueryContext ctx;
      (void)optimizer.Optimize(q, ctx);
    }
    signatures = recorder.signatures();
  }
  double sig_generic_cps = -1;
  int64_t sig_generic_subs = -1;
  for (const bool compile : {false, true}) {
    MetricsRegistry registry;
    MatchingService::Options opts;
    opts.compile_match_programs = compile;
    opts.observe.mode = ObserveMode::kCountersOnly;
    opts.observe.registry = &registry;
    auto service = workload.MakeService(num_views, opts);
    // The per-candidate match latency, by deciding tier.
    Histogram* tier_latency[kNumMatchTiers];
    for (int t = 0; t < kNumMatchTiers; ++t) {
      tier_latency[t] = registry.FindOrCreateHistogram(
          "mvopt_match_latency_seconds", "",
          {{"tier", MatchTierName(static_cast<MatchTier>(t))}});
    }
    auto run_once = [&] {
      for (const SpjgQuery& sig : signatures) {
        QueryContext ctx;
        (void)service->FindSubstitutes(sig, ctx);
      }
    };
    run_once();  // warm-up
    double seconds = -1;
    double tier_seconds[kNumMatchTiers] = {};
    MatchingStats stats;
    for (int rep = 0; rep < reps; ++rep) {
      service->ResetStats();
      double tier_before[kNumMatchTiers];
      for (int t = 0; t < kNumMatchTiers; ++t) {
        tier_before[t] = tier_latency[t]->sum_seconds();
      }
      auto start = std::chrono::steady_clock::now();
      run_once();
      auto stop = std::chrono::steady_clock::now();
      double s = std::chrono::duration<double>(stop - start).count();
      if (seconds < 0 || s < seconds) {
        seconds = s;
        stats = service->stats();
        for (int t = 0; t < kNumMatchTiers; ++t) {
          tier_seconds[t] = tier_latency[t]->sum_seconds() - tier_before[t];
        }
      }
    }
    const double cps = stats.full_tests / seconds;
    const char* mode = compile ? "compiled" : "generic";
    if (sig_generic_cps < 0) {
      sig_generic_cps = cps;
      sig_generic_subs = stats.substitutes;
    } else if (stats.substitutes != sig_generic_subs) {
      std::fprintf(stderr,
                   "TIER DIVERGENCE: group signatures, mode=%s "
                   "substitutes=%lld generic=%lld\n",
                   mode, static_cast<long long>(stats.substitutes),
                   static_cast<long long>(sig_generic_subs));
      return 1;
    }
    const double fallback_ratio =
        stats.full_tests > 0
            ? static_cast<double>(stats.compiled_fallbacks) / stats.full_tests
            : 0.0;
    report.BeginRow();
    report.Field("phase", "group_signatures");
    report.Field("mode", mode);
    report.Field("signatures", static_cast<int64_t>(signatures.size()));
    report.Field("seconds", seconds);
    report.Field("candidates", stats.full_tests);
    report.Field("candidates_per_sec", cps);
    report.Field("substitutes", stats.substitutes);
    report.Field("compiled_hits", stats.compiled_hits);
    report.Field("compiled_fallbacks", stats.compiled_fallbacks);
    report.Field("fallback_ratio", fallback_ratio);
    report.Field("compiled_tier_seconds",
                 tier_seconds[static_cast<int>(MatchTier::kCompiled)]);
    report.Field("generic_tier_seconds",
                 tier_seconds[static_cast<int>(MatchTier::kGeneric)]);
    report.Field("vs_generic", cps / sig_generic_cps);
    report.EndRow();
    std::fprintf(stderr,
                 "groups %-17s %8.3fs  %12.0f candidates/sec (%.2fx)  "
                 "fallbacks %lld/%lld  tier s: compiled %.3f generic %.3f\n",
                 mode, seconds, cps, cps / sig_generic_cps,
                 static_cast<long long>(stats.compiled_fallbacks),
                 static_cast<long long>(stats.full_tests),
                 tier_seconds[static_cast<int>(MatchTier::kCompiled)],
                 tier_seconds[static_cast<int>(MatchTier::kGeneric)]);
  }
  report.Finish();

  if (compiled_cps < 2.0 * generic_cps) {
    std::fprintf(stderr,
                 "WARNING: compiled kernel below the 2x target (%.2fx)\n",
                 compiled_cps / generic_cps);
    return 1;
  }
  return 0;
}
