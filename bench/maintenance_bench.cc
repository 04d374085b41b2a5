// Ablation A3: incremental view maintenance vs. full recomputation — the
// economics behind §2's indexed-view requirements (unique clustered key,
// mandatory count_big(*)). Measures wall time to apply small base-table
// deltas to a set of materialized aggregation views incrementally and by
// recomputing from scratch.
//
// Output: one JSON document on stdout (committed as
// results/maintenance_bench.json; see bench/bench_report.h); the table
// goes to stderr.

#include <chrono>
#include <cstdio>

#include "bench/bench_report.h"
#include "common/rng.h"
#include "engine/maintenance.h"
#include "tpch/datagen.h"
#include "tpch/schema.h"
#include "tpch/workload.h"

namespace mvopt {
namespace {

double Seconds(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

int Main() {
  constexpr double kScale = 0.001;
  constexpr int kNumViews = 10;
  constexpr int kRounds = 20;
  constexpr int kRecomputeRounds = 1;  // recompute is slow; extrapolate
  constexpr int kDeltaRows = 10;

  Catalog catalog;
  tpch::Schema schema = tpch::BuildSchema(&catalog, kScale);
  Database db(&catalog);
  tpch::DataGenOptions dg;
  dg.scale_factor = kScale;
  tpch::GenerateData(&db, schema, dg);

  ViewMaintainer maintainer(&db);
  tpch::WorkloadGenerator gen(&catalog, 77);
  std::vector<std::unique_ptr<ViewDefinition>> views;
  for (int i = 0; i < kNumViews; ++i) {
    views.push_back(std::make_unique<ViewDefinition>(
        i, "mv" + std::to_string(i), gen.GenerateView()));
    db.MaterializeView(views.back().get());
    maintainer.RegisterView(views.back().get());
  }

  std::fprintf(stderr,
               "# Ablation: incremental maintenance vs full recomputation\n");
  std::fprintf(stderr,
               "# %d views over TPC-H SF %.3f, %d rounds of %d-row deltas\n",
               kNumViews, kScale, kRounds, kDeltaRows);

  Rng rng(5);
  const TableData* lineitem = db.table(schema.lineitem);

  // Incremental path.
  auto t0 = std::chrono::steady_clock::now();
  for (int round = 0; round < kRounds; ++round) {
    std::vector<Row> batch;
    for (int k = 0; k < kDeltaRows; ++k) {
      batch.push_back(
          lineitem->rows()[rng.Uniform(0, lineitem->num_rows() - 1)]);
    }
    maintainer.Insert(schema.lineitem, batch);
    maintainer.Delete(schema.lineitem, {batch[0]});
  }
  auto t1 = std::chrono::steady_clock::now();
  double incremental = Seconds(t0, t1);

  // Recompute path: same deltas, every view rebuilt from scratch.
  auto recompute_all = [&]() {
    for (const auto& v : views) {
      TableData* data = db.table(v->materialized_table());
      std::vector<Row> rows = db.ExecuteSpjg(v->query());
      data->Clear();
      for (auto& r : rows) data->AppendRow(std::move(r));
      data->RebuildIndexes();
    }
  };
  auto t2 = std::chrono::steady_clock::now();
  for (int round = 0; round < kRecomputeRounds; ++round) {
    std::vector<Row> batch;
    for (int k = 0; k < kDeltaRows; ++k) {
      batch.push_back(
          lineitem->rows()[rng.Uniform(0, lineitem->num_rows() - 1)]);
    }
    TableData* data = db.table(schema.lineitem);
    for (auto& r : batch) data->AppendRow(r);
    data->RebuildIndexes();
    recompute_all();
    data->RemoveOneMatching(batch[0]);
    data->RebuildIndexes();
    recompute_all();
  }
  auto t3 = std::chrono::steady_clock::now();
  double recompute =
      Seconds(t2, t3) * (static_cast<double>(kRounds) / kRecomputeRounds);

  const double speedup = recompute / std::max(1e-9, incremental);
  std::fprintf(stderr,
               "incremental: %8.3f s  (%lld incremental updates, %lld "
               "fallback recomputations)\n",
               incremental,
               static_cast<long long>(maintainer.incremental_updates()),
               static_cast<long long>(maintainer.full_recomputations()));
  std::fprintf(stderr, "recompute:   %8.3f s (extrapolated from %d rounds)\n",
               recompute, kRecomputeRounds);
  std::fprintf(stderr, "speedup:     %8.1fx\n", speedup);

  bench::JsonReport report("maintenance_bench");
  report.Caveat(
      "single-thread wall clock on a shared host; recompute_s is "
      "extrapolated from recompute_rounds rounds to all rounds; compare "
      "the speedup, not absolute seconds");
  report.Meta("views", kNumViews);
  report.Meta("scale_factor", kScale);
  report.Meta("rounds", kRounds);
  report.Meta("delta_rows", kDeltaRows);
  report.Meta("recompute_rounds", kRecomputeRounds);
  report.BeginRow();
  report.Field("incremental_s", incremental);
  report.Field("recompute_s", recompute);
  report.Field("speedup", speedup);
  report.Field("incremental_updates", maintainer.incremental_updates());
  report.Field("full_recomputations", maintainer.full_recomputations());
  report.EndRow();
  report.Finish();
  return 0;
}

}  // namespace
}  // namespace mvopt

int main() { return mvopt::Main(); }
