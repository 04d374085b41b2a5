// Parallel crash-recovery bench for the sharded catalog: time a full
// RecoverAll over a durable N-view catalog, serial (no pool) versus
// parallel (one task per shard on a ThreadPool), as the catalog and the
// shard count grow. Recovery here is WAL replay: parse + validate +
// per-shard filter-tree and lattice reconstruction, plus the post-replay
// invariant audit — the CPU-bound path sharding is meant to spread.
//
// Each row also records how many views each shard recovered: parallel
// recovery finishes with its largest shard, so views / max_shard_views
// bounds the speedup whatever the core count. On a single-core host the
// parallel sweep degenerates to serial plus pool overhead.
//
// Output: JSON to stdout in the bench/bench_report.h envelope (redirect
// into results/shard_recovery.json).
//
// Knobs: MVOPT_BENCH_VIEWS (max views, default 400),
//        MVOPT_BENCH_STEP  (sweep step, default 100).

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_report.h"
#include "common/thread_pool.h"
#include "shard/sharded_catalog_service.h"
#include "tpch/schema.h"
#include "tpch/workload.h"

namespace mvopt {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

int EnvInt(const char* name, int def) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return def;
  return std::atoi(v);
}

struct Row {
  int views = 0;
  int num_shards = 0;
  double seed_ms = 0;
  double serial_ms = 0;
  double parallel_ms = 0;
  std::vector<int> shard_views;  ///< views recovered per shard
};

/// Times one RecoverAll; fills `shard_views` with each shard's count.
double TimeRecoverAll(const Catalog* catalog,
                      const ShardedCatalogOptions& options, ThreadPool* pool,
                      int want_views, std::vector<int>* shard_views) {
  ShardedCatalogService service(catalog, options);
  const auto start = Clock::now();
  const ShardRecoveryReport report = service.RecoverAll(pool);
  const double ms = MsSince(start);
  if (!report.all_healthy()) {
    std::fprintf(stderr, "recovery quarantined shards: %s\n",
                 report.ToJson().c_str());
    std::exit(1);
  }
  int total = 0;
  shard_views->clear();
  for (int s = 0; s < service.num_shards(); ++s) {
    shard_views->push_back(service.shard_service(s).views().num_views());
    total += shard_views->back();
  }
  if (total != want_views) {
    std::fprintf(stderr, "recovered %d views, want %d\n", total, want_views);
    std::exit(1);
  }
  return ms;
}

Row RunOne(const Catalog* catalog, const std::vector<SpjgQuery>& defs,
           int nviews, int num_shards, ThreadPool* pool) {
  Row row;
  row.views = nviews;
  row.num_shards = num_shards;
  char tmpl[] = "/tmp/mvopt_shard_bench_XXXXXX";
  const std::string dir = ::mkdtemp(tmpl);

  ShardedCatalogOptions options;
  options.num_shards = num_shards;
  options.dir = dir;
  {
    ShardedCatalogService service(catalog, options);
    const auto start = Clock::now();
    for (int i = 0; i < nviews; ++i) {
      std::string error;
      if (service.AddView("v" + std::to_string(i),
                          defs[static_cast<size_t>(i)],
                          &error) == kInvalidViewId) {
        std::fprintf(stderr, "registration failed: %s\n", error.c_str());
        std::exit(1);
      }
    }
    row.seed_ms = MsSince(start);
  }

  row.serial_ms =
      TimeRecoverAll(catalog, options, nullptr, nviews, &row.shard_views);
  row.parallel_ms =
      TimeRecoverAll(catalog, options, pool, nviews, &row.shard_views);

  const std::string cmd = "rm -rf " + dir;
  (void)::system(cmd.c_str());
  return row;
}

int Main() {
  const int max_views = EnvInt("MVOPT_BENCH_VIEWS", 400);
  const int step = EnvInt("MVOPT_BENCH_STEP", 100);
  const unsigned hw = std::thread::hardware_concurrency();
  const int workers = hw > 1 ? static_cast<int>(hw) - 1 : 1;

  Catalog catalog;
  const tpch::Schema schema = tpch::BuildSchema(&catalog, 0.5);
  (void)schema;
  tpch::WorkloadGenerator gen(&catalog, /*seed=*/7321);
  std::vector<SpjgQuery> defs;
  defs.reserve(static_cast<size_t>(max_views));
  for (int i = 0; i < max_views; ++i) defs.push_back(gen.GenerateView());

  ThreadPool pool(workers);
  std::vector<Row> rows;
  for (int views = step; views <= max_views; views += step) {
    for (int num_shards : {1, 4, 8}) {
      rows.push_back(RunOne(&catalog, defs, views, num_shards, &pool));
      std::fprintf(stderr, "views=%d shards=%d serial=%.1fms parallel=%.1fms\n",
                   rows.back().views, rows.back().num_shards,
                   rows.back().serial_ms, rows.back().parallel_ms);
    }
  }

  bench::JsonReport report("shard_recovery");
  report.Caveat(
      "parallel = one recovery task per shard on the pool; speedup is "
      "bounded by views / max_shard_views and, on a host with fewer "
      "hardware threads than shards, by the core count");
  report.Meta("pool_workers", workers);
  for (const Row& r : rows) {
    std::string per_shard;
    for (int n : r.shard_views) {
      if (!per_shard.empty()) per_shard += ",";
      per_shard += std::to_string(n);
    }
    const int max_shard =
        *std::max_element(r.shard_views.begin(), r.shard_views.end());
    report.BeginRow();
    report.Field("views", r.views);
    report.Field("num_shards", r.num_shards);
    report.Field("shard_views", per_shard);
    report.Field("max_shard_views", max_shard);
    report.Field("speedup_bound",
                 static_cast<double>(r.views) / std::max(max_shard, 1));
    report.Field("seed_ms", r.seed_ms);
    report.Field("serial_recover_ms", r.serial_ms);
    report.Field("parallel_recover_ms", r.parallel_ms);
    report.Field("speedup",
                 r.parallel_ms > 0 ? r.serial_ms / r.parallel_ms : 0.0);
    report.EndRow();
  }
  report.Finish();
  return 0;
}

}  // namespace
}  // namespace mvopt

int main() { return mvopt::Main(); }
