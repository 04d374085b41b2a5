// Shared setup for the §5 experiment benches: the TPC-H catalog, a pool
// of randomly generated views and queries (per the paper's §5 recipe),
// and helpers to run the optimizer over the query set with a given number
// of views installed.
//
// Knobs (environment variables):
//   MVOPT_BENCH_QUERIES   queries per measurement (default 1000, as in
//                         the paper; lower for quick runs)
//   MVOPT_BENCH_VIEWS     maximum number of views   (default 1000)
//   MVOPT_BENCH_STEP      view-count step           (default 200)

#ifndef MVOPT_BENCH_HARNESS_H_
#define MVOPT_BENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "index/matching_service.h"
#include "optimizer/optimizer.h"
#include "rewrite/substitute_source.h"
#include "tpch/schema.h"
#include "tpch/workload.h"

namespace mvopt {
namespace bench {

inline int EnvInt(const char* name, int def) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return def;
  return std::atoi(v);
}

struct SweepConfig {
  int num_queries = EnvInt("MVOPT_BENCH_QUERIES", 1000);
  int max_views = EnvInt("MVOPT_BENCH_VIEWS", 1000);
  int step = EnvInt("MVOPT_BENCH_STEP", 200);

  std::vector<int> ViewCounts() const {
    std::vector<int> counts{0};
    for (int n = step; n <= max_views; n += step) counts.push_back(n);
    return counts;
  }
};

class Workload {
 public:
  Workload(int num_views, int num_queries, uint64_t seed = 1)
      : schema_(tpch::BuildSchema(&catalog_, 0.5)) {
    // Views and queries "generated in the same way but with a different
    // seed for the random number generator" (§5).
    tpch::WorkloadGenerator view_gen(&catalog_, seed);
    for (int i = 0; i < num_views; ++i) {
      views_.push_back(view_gen.GenerateView());
    }
    tpch::WorkloadGenerator query_gen(&catalog_, seed + 77777);
    for (int i = 0; i < num_queries; ++i) {
      queries_.push_back(query_gen.GenerateQuery());
    }
  }

  /// A matching service holding the first `n` views.
  std::unique_ptr<MatchingService> MakeService(int n,
                                               bool use_filter_tree) const {
    MatchingService::Options opts;
    opts.use_filter_tree = use_filter_tree;
    return MakeService(n, opts);
  }

  /// Same, with full control over the service options (observability,
  /// verification, quarantine).
  std::unique_ptr<MatchingService> MakeService(
      int n, const MatchingService::Options& opts) const {
    auto service = std::make_unique<MatchingService>(&catalog_, opts);
    tpch::WorkloadGenerator index_gen(&catalog_, 4242);
    for (int i = 0; i < n; ++i) {
      std::string error;
      ViewDefinition* v =
          service->AddView("v" + std::to_string(i), views_[i], &error);
      if (v == nullptr) {
        std::fprintf(stderr, "view %d rejected: %s\n", i, error.c_str());
        continue;
      }
      index_gen.AttachDefaultIndexes(v);
    }
    return service;
  }

  const Catalog& catalog() const { return catalog_; }
  /// For tests that change the statistics under registered views.
  Catalog& mutable_catalog() { return catalog_; }
  const std::vector<SpjgQuery>& queries() const { return queries_; }
  int num_views_available() const { return static_cast<int>(views_.size()); }

 private:
  Catalog catalog_;
  tpch::Schema schema_;
  std::vector<SpjgQuery> views_;
  std::vector<SpjgQuery> queries_;
};

/// A SubstituteSource decorator that records every memo-group signature
/// the optimizer's view-matching rule probes (one FindSubstitutes call
/// per SPJG group), so the candidates the rule actually sees can be
/// replayed.
class RecordingSource : public SubstituteSource {
 public:
  explicit RecordingSource(SubstituteSource* inner) : inner_(inner) {}

  std::vector<Substitute> FindSubstitutes(const SpjgQuery& query,
                                          QueryContext& ctx) override {
    signatures_.push_back(query);
    return inner_->FindSubstitutes(query, ctx);
  }
  std::optional<UnionSubstitute> FindUnionSubstitute(
      const SpjgQuery& query, QueryContext& ctx) override {
    return inner_->FindUnionSubstitute(query, ctx);
  }
  const ViewDefinition& ResolveView(ViewId id) const override {
    return inner_->ResolveView(id);
  }

  const std::vector<SpjgQuery>& signatures() const { return signatures_; }

 private:
  SubstituteSource* inner_;
  std::vector<SpjgQuery> signatures_;
};

struct SweepPoint {
  int num_views = 0;
  double total_seconds = 0;           ///< total optimization time
  double view_matching_seconds = 0;   ///< time inside the rule
  int64_t invocations = 0;
  int64_t substitutes = 0;
  int64_t plans_using_views = 0;
  int64_t candidates = 0;  ///< from MatchingService stats
  int64_t full_tests = 0;
};

/// Optimizes every workload query against `n` views. `service` may be
/// null (pure no-view baseline).
inline SweepPoint RunSweepPoint(const Workload& workload,
                                MatchingService* service, int n,
                                const OptimizerOptions& options) {
  SweepPoint point;
  point.num_views = n;
  Optimizer optimizer(&workload.catalog(), service, options);
  auto start = std::chrono::steady_clock::now();
  for (const SpjgQuery& q : workload.queries()) {
    QueryContext ctx;
    OptimizationResult r = optimizer.Optimize(q, ctx);
    point.view_matching_seconds += r.metrics.view_matching_seconds;
    point.invocations += r.metrics.view_matching_invocations;
    point.substitutes += r.metrics.substitutes_produced;
    if (r.uses_view) ++point.plans_using_views;
  }
  auto end = std::chrono::steady_clock::now();
  point.total_seconds = std::chrono::duration<double>(end - start).count();
  if (service != nullptr) {
    point.candidates = service->stats().candidates;
    point.full_tests = service->stats().full_tests;
  }
  return point;
}

/// RunSweepPoint `passes` times over the same service; returns the pass
/// with the median total time (single passes of a few hundred
/// milliseconds swing with the host).
inline SweepPoint RunSweepPointMedian(const Workload& workload,
                                      MatchingService* service, int n,
                                      const OptimizerOptions& options,
                                      int passes) {
  std::vector<SweepPoint> points;
  for (int i = 0; i < passes; ++i) {
    points.push_back(RunSweepPoint(workload, service, n, options));
  }
  std::sort(points.begin(), points.end(),
            [](const SweepPoint& a, const SweepPoint& b) {
              return a.total_seconds < b.total_seconds;
            });
  return points[points.size() / 2];
}

}  // namespace bench
}  // namespace mvopt

#endif  // MVOPT_BENCH_HARNESS_H_
