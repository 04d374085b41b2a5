// Catalog registration and recovery bench: how registering and bringing
// back a view catalog scale with its size. Per catalog size N:
//
//   - in memory (no store): N AddView calls into an empty service, then
//     the per-call p50 / p99 of kTimedCalls further AddView calls into
//     the N-view catalog — the cost of publishing one more generation;
//   - durable: N registrations through the WAL (append + fsync each),
//     the raw WAL scan (decode + CRC), the full RecoverFrom rebuild
//     (parse + validate + filter tree and lattices), a checkpoint, and
//     the scan and rebuild again from the fresh snapshot.
//
// Emits one bench_report.h JSON document on stdout (committed as
// results/recovery_bench.json); progress goes to stderr.
//
// Knob: MVOPT_BENCH_SIZES, comma-separated catalog sizes (default
// 1000,2000,4000,10000).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_report.h"
#include "index/matching_service.h"
#include "rewrite/catalog_store.h"
#include "tpch/schema.h"
#include "tpch/workload.h"

namespace mvopt {
namespace {

using Clock = std::chrono::steady_clock;

/// AddView calls timed one by one at each catalog size.
constexpr int kTimedCalls = 200;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double Percentile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(q * (values.size() - 1) + 0.5);
  return values[rank];
}

[[noreturn]] void Fail(const std::string& what) {
  std::fprintf(stderr, "recovery_bench: %s\n", what.c_str());
  std::exit(1);
}

void Register(MatchingService* service, const std::vector<SpjgQuery>& defs,
              int begin, int end) {
  for (int i = begin; i < end; ++i) {
    std::string error;
    if (service->AddView("v" + std::to_string(i), defs[i], &error) ==
        nullptr) {
      Fail("registration failed: " + error);
    }
  }
}

struct InMemoryRow {
  double register_ms = 0;  // N AddView calls from empty
  double addview_p50_us = 0;
  double addview_p99_us = 0;
};

InMemoryRow RunInMemory(const Catalog* catalog,
                        const std::vector<SpjgQuery>& defs, int nviews) {
  InMemoryRow row;
  MatchingService service(catalog);
  auto start = Clock::now();
  Register(&service, defs, 0, nviews);
  row.register_ms = MsSince(start);
  std::vector<double> calls_us;
  for (int i = nviews; i < nviews + kTimedCalls; ++i) {
    auto call = Clock::now();
    Register(&service, defs, i, i + 1);
    calls_us.push_back(MsSince(call) * 1000.0);
  }
  row.addview_p50_us = Percentile(calls_us, 0.50);
  row.addview_p99_us = Percentile(calls_us, 0.99);
  return row;
}

struct DurableRow {
  double register_ms = 0;      // N AddView calls, WAL append + fsync each
  double wal_scan_ms = 0;      // CatalogStore::Recover, WAL only
  double wal_rebuild_ms = 0;   // full RecoverFrom, WAL only
  double checkpoint_ms = 0;    // snapshot write + WAL reset
  double snap_scan_ms = 0;     // CatalogStore::Recover, snapshot
  double snap_rebuild_ms = 0;  // full RecoverFrom, snapshot
  int64_t wal_bytes = 0;
};

DurableRow RunDurable(const Catalog* catalog,
                      const std::vector<SpjgQuery>& defs, int nviews) {
  DurableRow row;
  char tmpl[] = "/tmp/mvopt_recovery_bench_XXXXXX";
  const char* made = ::mkdtemp(tmpl);
  if (made == nullptr) Fail("mkdtemp failed");
  const std::string dir = made;

  {
    MatchingService service(catalog);
    CatalogStore store(dir);
    service.AttachStore(&store);
    auto start = Clock::now();
    Register(&service, defs, 0, nviews);
    row.register_ms = MsSince(start);
    row.wal_bytes = store.wal_bytes();
  }
  {
    CatalogStore store(dir);
    auto start = Clock::now();
    CatalogStore::RecoveredState state = store.Recover();
    row.wal_scan_ms = MsSince(start);
    if (state.report.views_recovered != nviews) {
      Fail("wal scan lost views: " + state.report.ToJson());
    }
  }
  {
    MatchingService reborn(catalog);
    CatalogStore store(dir);
    auto start = Clock::now();
    RecoveryReport report = reborn.RecoverFrom(&store);
    row.wal_rebuild_ms = MsSince(start);
    if (reborn.views().num_views() != nviews || !report.quarantined.empty()) {
      Fail("wal rebuild lost views: " + report.ToJson());
    }
    auto cp = Clock::now();
    reborn.Checkpoint();
    row.checkpoint_ms = MsSince(cp);
  }
  {
    CatalogStore store(dir);
    auto start = Clock::now();
    CatalogStore::RecoveredState state = store.Recover();
    row.snap_scan_ms = MsSince(start);
    if (!state.report.snapshot_loaded) {
      Fail("snapshot missing after checkpoint");
    }
  }
  {
    MatchingService reborn(catalog);
    CatalogStore store(dir);
    auto start = Clock::now();
    (void)reborn.RecoverFrom(&store);
    row.snap_rebuild_ms = MsSince(start);
    if (reborn.views().num_views() != nviews) {
      Fail("snapshot rebuild lost views");
    }
  }

  const std::string cmd = "rm -rf " + dir;
  (void)::system(cmd.c_str());
  return row;
}

std::vector<int> SizesFromEnv() {
  const char* env = std::getenv("MVOPT_BENCH_SIZES");
  const std::string spec =
      env != nullptr && *env != '\0' ? env : "1000,2000,4000,10000";
  std::vector<int> sizes;
  std::stringstream in(spec);
  std::string item;
  while (std::getline(in, item, ',')) {
    const int n = std::atoi(item.c_str());
    if (n <= 0) Fail("bad MVOPT_BENCH_SIZES entry '" + item + "'");
    sizes.push_back(n);
  }
  return sizes;
}

}  // namespace
}  // namespace mvopt

int main() {
  using namespace mvopt;
  const std::vector<int> sizes = SizesFromEnv();

  Catalog catalog;
  [[maybe_unused]] tpch::Schema schema = tpch::BuildSchema(&catalog, 0.5);
  tpch::WorkloadGenerator gen(&catalog, 7);
  std::vector<SpjgQuery> defs;
  const int max_size = *std::max_element(sizes.begin(), sizes.end());
  for (int i = 0; i < max_size + kTimedCalls; ++i) {
    defs.push_back(gen.GenerateView());
  }

  bench::JsonReport report("recovery_bench");
  report.Caveat(
      "single-threaded; durable columns are fsync-bound and measure the "
      "storage under /tmp as much as the code");
  report.Meta("view_seed", 7);
  report.Meta("timed_addview_calls", kTimedCalls);

  for (int n : sizes) {
    std::fprintf(stderr, "recovery_bench: %d views\n", n);
    const InMemoryRow mem = RunInMemory(&catalog, defs, n);
    report.BeginRow();
    report.Field("views", n);
    report.Field("mem_register_ms", mem.register_ms);
    report.Field("mem_addview_p50_us", mem.addview_p50_us);
    report.Field("mem_addview_p99_us", mem.addview_p99_us);
    const DurableRow row = RunDurable(&catalog, defs, n);
    report.Field("register_ms", row.register_ms);
    report.Field("wal_scan_ms", row.wal_scan_ms);
    report.Field("wal_rebuild_ms", row.wal_rebuild_ms);
    report.Field("checkpoint_ms", row.checkpoint_ms);
    report.Field("snap_scan_ms", row.snap_scan_ms);
    report.Field("snap_rebuild_ms", row.snap_rebuild_ms);
    report.Field("wal_bytes", row.wal_bytes);
    report.EndRow();
  }
  report.Finish();
  return 0;
}
