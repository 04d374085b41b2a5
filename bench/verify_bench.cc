// Overhead of the rewrite soundness checker (src/verify) on the matching
// path: the same seeded view/query workload is pushed through
// FindSubstitutes with verification off, in log mode and in enforce mode.
// Every view definition is also replayed as a query so the checker sees a
// guaranteed self-match per view on top of the random matches — without
// this most invocations produce nothing and the checker never runs.
//
// Each repetition times one pass of every mode, back to back, rotating
// which mode goes first, and compares the log and enforce passes with
// the off pass of the same repetition. The reported vs_off is the median
// of those per-repetition ratios, with its quartiles: a pass on a shared
// host swings by tens of percent, but the passes of one repetition see
// the same host (as in observe_overhead and fig2_opt_time).
//
// Output: JSON document on stdout (committed as
// results/verify_overhead.json; see bench/bench_report.h), progress on
// stderr.
//
// Knobs: MVOPT_BENCH_VIEWS (default 200), MVOPT_BENCH_QUERIES (default
// 400). The sampling is fixed: 51 recorded repetitions of one pass per
// mode, each pass 4 rounds of the workload.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_report.h"
#include "bench/harness.h"
#include "verify/rewrite_checker.h"

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

  const int num_views = EnvInt("MVOPT_BENCH_VIEWS", 200);
  const int num_queries = EnvInt("MVOPT_BENCH_QUERIES", 400);
  constexpr int kReps = 51;
  constexpr int kInner = 4;
  Workload workload(num_views, num_queries);

  constexpr std::array<VerifyMode, 3> kModes = {
      VerifyMode::kOff, VerifyMode::kLog, VerifyMode::kEnforce};
  std::array<std::unique_ptr<MatchingService>, 3> services;
  for (size_t m = 0; m < kModes.size(); ++m) {
    services[m] = workload.MakeService(num_views, /*use_filter_tree=*/true);
    services[m]->set_verify_mode(kModes[m]);
  }

  // One pass: `kInner` rounds of every view replayed as a query and every
  // workload query. Stats are reset first, so they count one pass.
  auto run_pass = [&](MatchingService* service) {
    service->ResetStats();
    service->ResetVerifyStats();
    const auto start = std::chrono::steady_clock::now();
    for (int round = 0; round < kInner; ++round) {
      for (ViewId id = 0; id < service->views().num_views(); ++id) {
        QueryContext ctx;
        (void)service->FindSubstitutes(service->views().view(id).query(), ctx);
      }
      for (const SpjgQuery& query : workload.queries()) {
        QueryContext ctx;
        (void)service->FindSubstitutes(query, ctx);
      }
    }
    const auto stop = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(stop - start).count();
  };

  // Repetition 0 warms every service up and is not recorded.
  std::array<std::vector<double>, 3> seconds;
  std::array<std::vector<double>, 3> ratios;
  for (int r = 0; r < kReps + 1; ++r) {
    std::array<double, 3> pass{};
    for (size_t k = 0; k < kModes.size(); ++k) {
      const size_t m = (static_cast<size_t>(r) + k) % kModes.size();
      pass[m] = run_pass(services[m].get());
    }
    if (r == 0) continue;
    for (size_t m = 0; m < kModes.size(); ++m) {
      seconds[m].push_back(pass[m]);
      ratios[m].push_back(pass[m] / pass[0]);
    }
  }

  JsonReport report("verify_overhead");
  report.Caveat(
      "vs_off is the median over repetitions of each mode's pass against "
      "the off pass of its repetition, with its quartiles, on a shared "
      "host; seconds is the median pass; absolute seconds are not "
      "comparable across hosts");
  report.Meta("views", num_views);
  report.Meta("queries", num_queries);
  report.Meta("reps", kReps);
  report.Meta("inner", kInner);
  report.Meta("self_match_replays_per_pass", num_views * kInner);

  std::fprintf(stderr,
               "# verify overhead: views=%d queries=%d reps=%d inner=%d "
               "(medians over repetitions)\n",
               num_views, num_queries, kReps, kInner);
  std::fprintf(stderr, "%-8s %10s %8s %8s %8s %9s %8s\n", "mode", "seconds",
               "vs_off", "p25", "p75", "checked", "proven");
  int exit_code = 0;
  for (size_t m = 0; m < kModes.size(); ++m) {
    const MatchingService& service = *services[m];
    const VerifyStats vs = service.verify_stats();
    report.BeginRow();
    report.Field("mode", VerifyModeName(kModes[m]));
    report.Field("seconds", Quantile(seconds[m], 0.5));
    report.Field("substitutes", service.stats().substitutes);
    report.Field("checked", vs.checked);
    report.Field("proven", vs.proven);
    report.Field("rejected", vs.rejected);
    report.Field("vs_off", Quantile(ratios[m], 0.5));
    report.Field("vs_off_p25", Quantile(ratios[m], 0.25));
    report.Field("vs_off_p75", Quantile(ratios[m], 0.75));
    report.EndRow();
    std::fprintf(stderr, "%-8s %10.4f %8.3f %8.3f %8.3f %9lld %8lld\n",
                 VerifyModeName(kModes[m]), Quantile(seconds[m], 0.5),
                 Quantile(ratios[m], 0.5), Quantile(ratios[m], 0.25),
                 Quantile(ratios[m], 0.75),
                 static_cast<long long>(vs.checked),
                 static_cast<long long>(vs.proven));
    if (vs.rejected != 0) {
      std::fprintf(stderr, "WARNING: %lld rejections (expected none)\n",
                   static_cast<long long>(vs.rejected));
      for (const auto& t : vs.rejection_traces) {
        std::fprintf(stderr, "  %s\n", t.c_str());
      }
      exit_code = 1;
    }
  }
  report.Finish();
  return exit_code;
}
