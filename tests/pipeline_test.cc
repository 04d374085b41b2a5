// Staged matching pipeline (probe -> prefilter -> match -> compensate ->
// cost-annotate): golden stage order and QueryContext plumbing
// (deadlines and staleness tolerance).

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "common/query_context.h"
#include "index/matching_service.h"
#include "tpch/schema.h"
#include "tpch/workload.h"

namespace mvopt {
namespace {

using std::chrono::milliseconds;

// ---------------------------------------------------------------------
// Pipeline fixture.
// ---------------------------------------------------------------------

class PipelineTest : public ::testing::Test {
 protected:
  PipelineTest() : schema_(tpch::BuildSchema(&catalog_, 0.5)) {}

  void AddWorkloadViews(MatchingService* service, int n, uint64_t seed) {
    tpch::WorkloadGenerator gen(&catalog_, seed);
    for (int i = 0; i < n; ++i) {
      std::string error;
      ASSERT_NE(service->AddView("v" + std::to_string(i), gen.GenerateView(),
                                 &error),
                nullptr)
          << error;
    }
  }

  std::vector<SpjgQuery> MakeQueries(int n, uint64_t seed) {
    tpch::WorkloadGenerator gen(&catalog_, seed);
    std::vector<SpjgQuery> out;
    for (int i = 0; i < n; ++i) out.push_back(gen.GenerateQuery());
    return out;
  }

  Catalog catalog_;
  tpch::Schema schema_;
};

// ---------------------------------------------------------------------
// Golden stage order.
// ---------------------------------------------------------------------

TEST_F(PipelineTest, TraceRecordsGoldenStageOrder) {
  MatchingService service(&catalog_);
  AddWorkloadViews(&service, 20, 7);
  const std::vector<SpjgQuery> queries = MakeQueries(1, 42);

  QueryTrace trace;
  QueryContext ctx;
  ctx.set_trace(&trace);
  service.FindSubstitutes(queries[0], ctx);

  const std::vector<std::string> golden = {"probe", "prefilter", "match",
                                           "compensate", "cost-annotate"};
  ASSERT_EQ(trace.stage_log(), golden);

  // A second probe appends the same sequence; the union path appends its
  // own single boundary.
  service.FindSubstitutes(queries[0], ctx);
  service.FindUnionSubstitute(queries[0], ctx);
  std::vector<std::string> twice = golden;
  twice.insert(twice.end(), golden.begin(), golden.end());
  twice.push_back("union-match");
  EXPECT_EQ(trace.stage_log(), twice);
}

TEST_F(PipelineTest, StageHookSeesGoldenOrderWithoutATrace) {
  MatchingService service(&catalog_);
  AddWorkloadViews(&service, 20, 7);
  const std::vector<SpjgQuery> queries = MakeQueries(1, 42);

  std::vector<std::string> seen;
  QueryContext ctx;
  ctx.set_stage_hook([&seen](const char* stage, double seconds) {
    EXPECT_GE(seconds, 0.0);
    seen.push_back(stage);
  });
  service.FindSubstitutes(queries[0], ctx);
  const std::vector<std::string> golden = {"probe", "prefilter", "match",
                                           "compensate", "cost-annotate"};
  EXPECT_EQ(seen, golden);
}

TEST_F(PipelineTest, TraceJsonCarriesThePipelineLog) {
  MatchingService service(&catalog_);
  AddWorkloadViews(&service, 5, 7);
  QueryTrace trace;
  QueryContext ctx;
  ctx.set_trace(&trace);
  service.FindSubstitutes(MakeQueries(1, 42)[0], ctx);
  const std::string json = trace.ToJson();
  EXPECT_NE(json.find("\"pipeline\""), std::string::npos);
  EXPECT_NE(json.find("\"cost-annotate\""), std::string::npos);
}

// ---------------------------------------------------------------------
// Context plumbing.
// ---------------------------------------------------------------------

TEST_F(PipelineTest, ExpiredDeadlineTruncatesThePipeline) {
  MatchingService::Options options;
  options.use_filter_tree = false;
  MatchingService service(&catalog_, options);
  AddWorkloadViews(&service, 50, 17);
  QueryContext ctx;
  ctx.EmplaceBudget().set_deadline(QueryBudget::Clock::now() -
                                   milliseconds(1));
  std::vector<Substitute> subs =
      service.FindSubstitutes(MakeQueries(1, 3)[0], ctx);
  EXPECT_TRUE(subs.empty());
  EXPECT_TRUE(ctx.exhausted());
  EXPECT_EQ(ctx.degradation(), DegradationReason::kDeadlineExceeded);
  EXPECT_GE(service.stats().budget_truncations, 1);
}

TEST_F(PipelineTest, UnionSubstituteRespectsTheContextDeadline) {
  MatchingService service(&catalog_);
  AddWorkloadViews(&service, 10, 23);
  QueryContext ctx;
  ctx.EmplaceBudget().set_deadline(QueryBudget::Clock::now() -
                                   milliseconds(1));
  EXPECT_FALSE(
      service.FindUnionSubstitute(MakeQueries(1, 3)[0], ctx).has_value());
  EXPECT_TRUE(ctx.exhausted());
}

TEST_F(PipelineTest, StaleSubstitutesCarryTheirLagAndFreshOnlyDegrades) {
  MatchingService service(&catalog_);
  TableEpochClock epochs;
  service.set_epoch_clock(&epochs);
  AddWorkloadViews(&service, 40, 31);
  const std::vector<SpjgQuery> queries = MakeQueries(20, 888);

  // Mutate every base table once: every view (registered at epoch 0) now
  // lags by at least one epoch.
  for (int t = 0; t < catalog_.num_tables(); ++t) epochs.Advance(t);

  for (const SpjgQuery& q : queries) {
    QueryContext fresh_only;
    EXPECT_TRUE(service.FindSubstitutes(q, fresh_only).empty());

    QueryContext tolerant;
    tolerant.set_max_staleness(64);  // above any lag the loop above created
    std::vector<Substitute> subs = service.FindSubstitutes(q, tolerant);
    for (const Substitute& s : subs) EXPECT_GE(s.staleness_lag, 1u);
    if (!subs.empty()) {
      // The fresh-only probe skipped those same views for staleness, so
      // it must have reported the advisory degradation — locally, since
      // no budget was attached.
      EXPECT_EQ(fresh_only.degradation(), DegradationReason::kStaleViewsOnly);
    }
  }
}

}  // namespace
}  // namespace mvopt
