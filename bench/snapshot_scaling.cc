// Cross-query probe scaling: concurrent FindSubstitutes throughput when
// each thread runs its own queries against one MatchingService. Probes
// pin the published snapshot through the epoch domain and take no shared
// lock (DESIGN.md §15), so throughput should grow with the threads up to
// the host's hardware threads.
//
// Fixed-work design: every thread sweeps the query set a fixed number
// of rounds, so each thread count executes the same probe sequence per
// thread. Emits JSON on stdout (committed as
// results/snapshot_scaling.json); the host_hw_threads caveat field
// records the core count the numbers were taken on — thread counts
// beyond it oversubscribe and measure scheduling, not probe scaling.
//
// Knobs: MVOPT_BENCH_QUERIES (default 100), MVOPT_BENCH_VIEWS (default
// 300), MVOPT_BENCH_ROUNDS (rounds per thread, default 200).

#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_report.h"
#include "bench/harness.h"
#include "common/query_context.h"

int main() {
  using namespace mvopt;
  using namespace mvopt::bench;

  const int num_queries = EnvInt("MVOPT_BENCH_QUERIES", 100);
  const int num_views = EnvInt("MVOPT_BENCH_VIEWS", 300);
  const int rounds = EnvInt("MVOPT_BENCH_ROUNDS", 200);
  const unsigned hw = std::thread::hardware_concurrency();
  const std::vector<int> thread_counts = {1, 2, 4, 16};

  Workload workload(num_views, num_queries);

  JsonReport report("snapshot_scaling");
  char caveat[256];
  std::snprintf(caveat, sizeof(caveat),
                "probes/sec measured on a host with %u hardware threads; "
                "points with threads > %u oversubscribe and measure "
                "scheduling, not probe scaling",
                hw, hw);
  report.Caveat(caveat);
  report.Meta("views", num_views);
  report.Meta("queries", num_queries);
  report.Meta("rounds_per_thread", rounds);
  report.Meta("probe_path_shared_lock_acquisitions", 0);

  auto service = workload.MakeService(num_views, /*use_filter_tree=*/true);
  for (int threads : thread_counts) {
    std::atomic<int64_t> substitutes{0};
    std::vector<std::thread> probers;
    const auto start = std::chrono::steady_clock::now();
    for (int t = 0; t < threads; ++t) {
      probers.emplace_back([&] {
        int64_t local = 0;
        for (int r = 0; r < rounds; ++r) {
          for (const SpjgQuery& q : workload.queries()) {
            QueryContext ctx;
            local += static_cast<int64_t>(
                service->FindSubstitutes(q, ctx).size());
          }
        }
        substitutes.fetch_add(local);
      });
    }
    for (std::thread& p : probers) p.join();
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    const int64_t probes = static_cast<int64_t>(threads) * rounds * num_queries;
    report.BeginRow();
    report.Field("threads", threads);
    report.Field("probes", probes);
    report.Field("seconds", seconds);
    report.Field("probes_per_sec", probes / seconds);
    report.Field("substitutes", substitutes.load());
    report.EndRow();
    std::fprintf(stderr, "threads=%-3d %10.0f probes/sec\n", threads,
                 probes / seconds);
  }
  report.Finish();
  return 0;
}
