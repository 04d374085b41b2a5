// Ablation A2: filter-tree level composition (§4.3 — "the conditions are
// independent and can be composed in any order"). Compares the paper's
// eight-level order against shallower trees and a reversed order:
// candidate counts stay identical (the conditions are conjunctive), but
// probe time shifts with how early the most selective conditions run.

#include <chrono>
#include <cstdio>

#include "bench/harness.h"
#include "index/filter_tree.h"

namespace mvopt {
namespace bench {
namespace {

struct LevelConfig {
  const char* name;
  std::vector<FilterLevel> spj;
  std::vector<FilterLevel> agg;
};

double ProbeSeconds(const Catalog& catalog, const ViewCatalog& views,
                    const LevelConfig& config,
                    const std::vector<QueryDescription>& queries,
                    int64_t* total_candidates) {
  FilterTree tree;
  tree.SetLevels(config.spj, config.agg);
  for (ViewId id = 0; id < views.num_views(); ++id) {
    tree.AddView(views.shared_description(id));
  }
  (void)catalog;
  auto start = std::chrono::steady_clock::now();
  int64_t candidates = 0;
  for (const auto& qd : queries) {
    candidates += static_cast<int64_t>(tree.FindCandidates(qd).size());
  }
  auto end = std::chrono::steady_clock::now();
  *total_candidates = candidates;
  return std::chrono::duration<double>(end - start).count();
}

}  // namespace

int Main() {
  SweepConfig config;
  const int num_views = config.max_views;
  const int num_queries = config.num_queries;

  Catalog catalog;
  tpch::BuildSchema(&catalog, 0.5);
  ViewCatalog views(&catalog);
  tpch::WorkloadGenerator view_gen(&catalog, 1);
  for (int i = 0; i < num_views; ++i) {
    std::string error;
    views.AddView("v" + std::to_string(i), view_gen.GenerateView(), &error);
  }
  tpch::WorkloadGenerator query_gen(&catalog, 77778);
  std::vector<QueryDescription> queries;
  for (int i = 0; i < num_queries; ++i) {
    queries.push_back(DescribeQuery(catalog, query_gen.GenerateQuery()));
  }

  using FL = FilterLevel;
  std::vector<FL> paper_spj = {FL::kHub,           FL::kSourceTables,
                               FL::kOutputExprs,   FL::kOutputColumns,
                               FL::kResidual,      FL::kRangeConstraints};
  std::vector<FL> paper_agg = paper_spj;
  paper_agg.push_back(FL::kGroupingExprs);
  paper_agg.push_back(FL::kGroupingColumns);

  std::vector<LevelConfig> configs;
  configs.push_back({"paper-order(8)", paper_spj, paper_agg});
  {
    std::vector<FL> rev_spj(paper_spj.rbegin(), paper_spj.rend());
    std::vector<FL> rev_agg(paper_agg.rbegin(), paper_agg.rend());
    configs.push_back({"reversed", rev_spj, rev_agg});
  }
  configs.push_back({"tables-only",
                     {FL::kHub, FL::kSourceTables},
                     {FL::kHub, FL::kSourceTables}});
  configs.push_back({"source-tables-only",
                     {FL::kSourceTables},
                     {FL::kSourceTables}});
  configs.push_back(
      {"columns-first",
       {FL::kOutputColumns, FL::kRangeConstraints, FL::kResidual,
        FL::kOutputExprs, FL::kSourceTables, FL::kHub},
       {FL::kGroupingColumns, FL::kGroupingExprs, FL::kOutputColumns,
        FL::kRangeConstraints, FL::kResidual, FL::kOutputExprs,
        FL::kSourceTables, FL::kHub}});

  std::printf("# Ablation: filter-tree level composition (%d views, %d "
              "queries)\n",
              views.num_views(), num_queries);
  std::printf("%-22s %14s %16s %16s\n", "config", "probe-time(s)",
              "candidates", "cand/query");
  for (const auto& c : configs) {
    int64_t candidates = 0;
    double secs = ProbeSeconds(catalog, views, c, queries, &candidates);
    std::printf("%-22s %14.3f %16lld %16.2f\n", c.name, secs,
                static_cast<long long>(candidates),
                static_cast<double>(candidates) / num_queries);
  }
  std::printf(
      "# note: candidate counts are identical for configs applying the\n"
      "# full condition set (conjunctive filters); prefix configs admit\n"
      "# more candidates.\n");
  return 0;
}

}  // namespace bench
}  // namespace mvopt

int main() { return mvopt::bench::Main(); }
