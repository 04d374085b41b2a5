// Ablation A2: filter-tree level composition (§4.3 — "the conditions are
// independent and can be composed in any order"), and the probe cost the
// view-matching rule actually pays.
//
// Phase "levels" compares the paper's eight-level order against
// shallower trees and reordered ones over the §5 queries: candidate
// counts stay identical for every full-condition order (the conditions
// are conjunctive), but probe time shifts with how early the most
// selective conditions run.
//
// Phase "signatures" replays every memo-group signature the optimizer's
// view-matching rule probes (recorded with bench::RecordingSource over
// the same queries) through FindCandidates on trees of N and 10·N views,
// and reports µs per invocation for a cold sweep (each
// signature once, in recorded order; best of three sweeps) and for a
// warm repeat (each signature re-probed back to back; best of five),
// lattice nodes visited and allocations per invocation, and the bytes
// the tree holds per view (live heap bytes allocated while indexing,
// counted by the replaced global operator new below).
//
// Knobs: MVOPT_BENCH_VIEWS (N, default 1000) and MVOPT_BENCH_QUERIES
// (default 1000). Emits one bench_report.h JSON document on stdout.

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "bench/bench_report.h"
#include "bench/harness.h"
#include "index/filter_tree.h"

namespace {

// Heap accounting for the whole binary: live bytes (by usable size) and
// the allocation count. The bench is single-threaded.
int64_t g_live_bytes = 0;
int64_t g_allocations = 0;

void* CountedAlloc(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  g_live_bytes += static_cast<int64_t>(malloc_usable_size(p));
  ++g_allocations;
  return p;
}

void CountedFree(void* p) {
  if (p == nullptr) return;
  g_live_bytes -= static_cast<int64_t>(malloc_usable_size(p));
  std::free(p);
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }

namespace mvopt {
namespace bench {
namespace {

using Clock = std::chrono::steady_clock;

struct LevelConfig {
  const char* name;
  std::vector<FilterLevel> spj;
  std::vector<FilterLevel> agg;
};

double Seconds(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::vector<LevelConfig> Configs() {
  using FL = FilterLevel;
  std::vector<FL> paper_spj = {FL::kHub,           FL::kSourceTables,
                               FL::kOutputExprs,   FL::kOutputColumns,
                               FL::kResidual,      FL::kRangeConstraints};
  std::vector<FL> paper_agg = paper_spj;
  paper_agg.push_back(FL::kGroupingExprs);
  paper_agg.push_back(FL::kGroupingColumns);

  std::vector<LevelConfig> configs;
  configs.push_back({"paper-order(8)", paper_spj, paper_agg});
  configs.push_back({"reversed",
                     std::vector<FL>(paper_spj.rbegin(), paper_spj.rend()),
                     std::vector<FL>(paper_agg.rbegin(), paper_agg.rend())});
  configs.push_back({"tables-only",
                     {FL::kHub, FL::kSourceTables},
                     {FL::kHub, FL::kSourceTables}});
  configs.push_back(
      {"source-tables-only", {FL::kSourceTables}, {FL::kSourceTables}});
  configs.push_back(
      {"columns-first",
       {FL::kOutputColumns, FL::kRangeConstraints, FL::kResidual,
        FL::kOutputExprs, FL::kSourceTables, FL::kHub},
       {FL::kGroupingColumns, FL::kGroupingExprs, FL::kOutputColumns,
        FL::kRangeConstraints, FL::kResidual, FL::kOutputExprs,
        FL::kSourceTables, FL::kHub}});
  return configs;
}

}  // namespace

int Main() {
  SweepConfig config;
  const std::vector<int> sizes = {config.max_views, 10 * config.max_views};
  const int max_views = sizes.back();
  Workload workload(max_views, config.num_queries, /*seed=*/1);
  const Catalog& catalog = workload.catalog();

  // The memo-group signatures the view-matching rule probes: the same
  // for every catalog size (groups come from the query alone).
  std::vector<QueryDescription> signatures;
  {
    auto service =
        workload.MakeService(config.max_views, /*use_filter_tree=*/true);
    RecordingSource recorder(service.get());
    Optimizer optimizer(&catalog, &recorder);
    for (const SpjgQuery& q : workload.queries()) {
      QueryContext ctx;
      (void)optimizer.Optimize(q, ctx);
    }
    for (const SpjgQuery& sig : recorder.signatures()) {
      signatures.push_back(DescribeQuery(catalog, sig));
    }
  }
  std::vector<QueryDescription> queries;
  for (const SpjgQuery& q : workload.queries()) {
    queries.push_back(DescribeQuery(catalog, q));
  }
  auto service = workload.MakeService(max_views, /*use_filter_tree=*/false);
  const ViewCatalog& views = service->views();

  JsonReport report("ablate_levels");
  report.Caveat(
      "single-thread wall clock on a shared host; compare runs taken "
      "alternately on one host, and the host-independent counts");
  report.Meta("queries", config.num_queries);
  report.Meta("level_views", config.max_views);
  report.Meta("signatures", static_cast<int64_t>(signatures.size()));
  report.Meta("seed", 1);

  for (const LevelConfig& c : Configs()) {
    FilterTree tree;
    tree.SetLevels(c.spj, c.agg);
    for (ViewId id = 0; id < config.max_views; ++id) {
      tree.AddView(views.description(id));
    }
    int64_t candidates = 0;
    const auto start = Clock::now();
    for (const QueryDescription& qd : queries) {
      QueryContext ctx;
      candidates += static_cast<int64_t>(tree.FindCandidates(qd, ctx).size());
    }
    const double secs = Seconds(start);
    std::fprintf(stderr, "levels %-20s %.3f s %lld candidates\n", c.name,
                 secs, static_cast<long long>(candidates));
    report.BeginRow();
    report.Field("phase", "levels");
    report.Field("config", c.name);
    report.Field("views", config.max_views);
    report.Field("probe_s", secs);
    report.Field("candidates", candidates);
    report.Field("candidates_per_query",
                 static_cast<double>(candidates) / config.num_queries);
    report.EndRow();
  }

  for (int n : sizes) {
    const int64_t bytes_before = g_live_bytes;
    FilterTree tree;
    n = std::min(n, views.num_views());
    for (ViewId id = 0; id < n; ++id) tree.AddView(views.description(id));
    const int64_t tree_bytes = g_live_bytes - bytes_before;

    const auto num = static_cast<double>(signatures.size());
    FilterSearchStats stats;
    int64_t candidates = 0;
    double cold = 1e30;
    for (int sweep = 0; sweep < 3; ++sweep) {
      const auto start = Clock::now();
      for (const QueryDescription& qd : signatures) {
        QueryContext ctx;
        candidates +=
            static_cast<int64_t>(tree.FindCandidates(qd, ctx, &stats).size());
      }
      cold = std::min(cold, Seconds(start));
    }
    double warm = 0;
    const int64_t allocations_before = g_allocations;
    for (const QueryDescription& qd : signatures) {
      double best = 1e30;
      for (int r = 0; r < 5; ++r) {
        const auto start = Clock::now();
        QueryContext ctx;
        (void)tree.FindCandidates(qd, ctx);
        best = std::min(best, Seconds(start));
      }
      warm += best;
    }
    const double allocations =
        static_cast<double>(g_allocations - allocations_before) / (5 * num);
    std::fprintf(stderr,
                 "signatures %d views: cold %.2f us, warm %.2f us, %.1f "
                 "B/view\n",
                 n, cold / num * 1e6, warm / num * 1e6,
                 static_cast<double>(tree_bytes) / n);
    report.BeginRow();
    report.Field("phase", "signatures");
    report.Field("views", n);
    report.Field("cold_us_per_invocation", cold / num * 1e6);
    report.Field("warm_us_per_invocation", warm / num * 1e6);
    report.Field("lattice_nodes_visited_per_invocation",
                 static_cast<double>(stats.lattice_nodes_visited) / (3 * num));
    report.Field("candidates_per_invocation",
                 static_cast<double>(candidates) / (3 * num));
    report.Field("allocations_per_invocation", allocations);
    report.Field("tree_bytes_per_view",
                 static_cast<double>(tree_bytes) / n);
    report.EndRow();
  }
  return 0;
}

}  // namespace bench
}  // namespace mvopt

int main() { return mvopt::bench::Main(); }
