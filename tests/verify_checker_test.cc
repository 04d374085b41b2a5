// RewriteChecker tests: (1) adversarial — take a substitute the matcher
// provably got right, break it in targeted ways (drop a compensating
// predicate, widen a range, swap an aggregate, reroute an output) and
// assert every mutant is rejected with the right CheckCode; (2) property —
// on the seeded random TPC-H workload, enforce mode must accept every
// substitute the matcher produces (the checker has no false rejections).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "index/matching_service.h"
#include "tpch/schema.h"
#include "tpch/workload.h"
#include "verify/rewrite_checker.h"

namespace mvopt {
namespace {

void ExpectVerdict(const RewriteChecker& checker, const SpjgQuery& query,
                   const ViewDefinition& view, const Substitute& sub,
                   CheckCode want) {
  Verdict verdict = checker.Check(query, view, sub);
  EXPECT_EQ(verdict.code, want)
      << "got " << CheckCodeName(verdict.code) << ": " << verdict.detail;
  EXPECT_EQ(verdict.proven, want == CheckCode::kProven);
}

class VerifyCheckerTest : public ::testing::Test {
 protected:
  void SetUp() override { tpch::BuildSchema(&catalog_, 0.001); }

  Substitute SingleSubstitute(MatchingService* service,
                              const SpjgQuery& query) {
    QueryContext ctx;
    auto subs = service->FindSubstitutes(query, ctx);
    EXPECT_EQ(subs.size(), 1u) << "expected exactly one substitute";
    return subs.at(0);
  }

  Catalog catalog_;
};

// View: lineitem rows with l_quantity < 20, outputting orderkey, partkey
// and the filter column. Query asks for l_quantity < 10, so the matcher
// must compensate with a range predicate over the view's quantity output.
TEST_F(VerifyCheckerTest, RangeCompensationMutants) {
  MatchingService service(&catalog_);
  SpjgBuilder vb(&catalog_);
  int l = vb.AddTable("lineitem");
  vb.Where(Expr::MakeCompare(CompareOp::kLt, vb.Col(l, "l_quantity"),
                             Expr::MakeLiteral(Value::Int64(20))));
  vb.Output(vb.Col(l, "l_orderkey"));
  vb.Output(vb.Col(l, "l_partkey"));
  vb.Output(vb.Col(l, "l_quantity"));
  std::string error;
  ViewDefinition* view = service.AddView("qty_slice", vb.Build(), &error);
  ASSERT_NE(view, nullptr) << error;

  SpjgBuilder qb(&catalog_);
  int ql = qb.AddTable("lineitem");
  qb.Where(Expr::MakeCompare(CompareOp::kLt, qb.Col(ql, "l_quantity"),
                             Expr::MakeLiteral(Value::Int64(10))));
  qb.Output(qb.Col(ql, "l_orderkey"));
  qb.Output(qb.Col(ql, "l_partkey"));
  SpjgQuery query = qb.Build();

  Substitute good = SingleSubstitute(&service, query);
  ASSERT_FALSE(good.predicates.empty());

  RewriteChecker checker(&catalog_);
  ExpectVerdict(checker, query, *view, good, CheckCode::kProven);

  // Mutant 1: drop the compensating range predicate — the substitute now
  // returns rows with 10 <= l_quantity < 20 the query excludes.
  Substitute dropped = good;
  dropped.predicates.clear();
  ExpectVerdict(checker, query, *view, dropped,
                CheckCode::kRangeNotEquivalent);

  // Mutant 2: widen the compensating range from < 10 to < 15.
  Substitute widened = good;
  widened.predicates = {Expr::MakeCompare(
      CompareOp::kLt, Expr::MakeColumn(0, 2),
      Expr::MakeLiteral(Value::Int64(15)))};
  ExpectVerdict(checker, query, *view, widened,
                CheckCode::kRangeNotEquivalent);

  // Mutant 3: reroute an output to the wrong view column.
  Substitute rerouted = good;
  rerouted.outputs[1].expr = Expr::MakeColumn(0, 2);
  ExpectVerdict(checker, query, *view, rerouted,
                CheckCode::kOutputNotEquivalent);

  // Mutant 4: reference outside the view's output space.
  Substitute wild = good;
  wild.outputs[0].expr = Expr::MakeColumn(0, 7);
  ExpectVerdict(checker, query, *view, wild,
                CheckCode::kMalformedSubstitute);
}

// View with no predicate; the query adds l_partkey = l_suppkey, which the
// matcher must compensate with an equality over view outputs.
TEST_F(VerifyCheckerTest, EqualityCompensationMutants) {
  MatchingService service(&catalog_);
  SpjgBuilder vb(&catalog_);
  int l = vb.AddTable("lineitem");
  vb.Output(vb.Col(l, "l_orderkey"));
  vb.Output(vb.Col(l, "l_partkey"));
  vb.Output(vb.Col(l, "l_suppkey"));
  std::string error;
  ViewDefinition* view = service.AddView("li_cols", vb.Build(), &error);
  ASSERT_NE(view, nullptr) << error;

  SpjgBuilder qb(&catalog_);
  int ql = qb.AddTable("lineitem");
  qb.Where(Expr::MakeCompare(CompareOp::kEq, qb.Col(ql, "l_partkey"),
                             qb.Col(ql, "l_suppkey")));
  qb.Output(qb.Col(ql, "l_orderkey"));
  SpjgQuery query = qb.Build();

  Substitute good = SingleSubstitute(&service, query);
  ASSERT_FALSE(good.predicates.empty());

  RewriteChecker checker(&catalog_);
  ExpectVerdict(checker, query, *view, good, CheckCode::kProven);

  Substitute dropped = good;
  dropped.predicates.clear();
  ExpectVerdict(checker, query, *view, dropped,
                CheckCode::kEqualityNotEquivalent);
}

// Aggregation rollup (§3.3): view grouped by (o_custkey, l_suppkey) with
// count(*) and SUM(l_quantity); query grouped by o_custkey only, so the
// substitute re-aggregates with SUM over both columns.
TEST_F(VerifyCheckerTest, AggregateRollupMutants) {
  MatchingService service(&catalog_);
  SpjgBuilder vb(&catalog_);
  int l = vb.AddTable("lineitem");
  int o = vb.AddTable("orders");
  vb.Where(Expr::MakeCompare(CompareOp::kEq, vb.Col(l, "l_orderkey"),
                             vb.Col(o, "o_orderkey")));
  vb.Output(vb.Col(o, "o_custkey"));
  vb.Output(vb.Col(l, "l_suppkey"));
  vb.Output(Expr::MakeAggregate(AggKind::kCountStar, nullptr), "cnt");
  vb.Output(Expr::MakeAggregate(AggKind::kSum, vb.Col(l, "l_quantity")),
            "sumq");
  vb.GroupBy(vb.Col(o, "o_custkey"));
  vb.GroupBy(vb.Col(l, "l_suppkey"));
  std::string error;
  ViewDefinition* view = service.AddView("agg_wide", vb.Build(), &error);
  ASSERT_NE(view, nullptr) << error;

  SpjgBuilder qb(&catalog_);
  int ql = qb.AddTable("lineitem");
  int qo = qb.AddTable("orders");
  qb.Where(Expr::MakeCompare(CompareOp::kEq, qb.Col(ql, "l_orderkey"),
                             qb.Col(qo, "o_orderkey")));
  qb.Output(qb.Col(qo, "o_custkey"));
  qb.Output(Expr::MakeAggregate(AggKind::kCountStar, nullptr), "n");
  qb.Output(Expr::MakeAggregate(AggKind::kSum, qb.Col(ql, "l_quantity")),
            "q");
  qb.GroupBy(qb.Col(qo, "o_custkey"));
  SpjgQuery query = qb.Build();

  Substitute good = SingleSubstitute(&service, query);
  ASSERT_TRUE(good.needs_aggregation);

  RewriteChecker checker(&catalog_);
  ExpectVerdict(checker, query, *view, good, CheckCode::kProven);

  // Mutant 1: roll up the sum with MIN — MIN of per-group sums is not the
  // overall sum.
  Substitute min_rollup = good;
  min_rollup.outputs[2].expr =
      Expr::MakeAggregate(AggKind::kMin, Expr::MakeColumn(0, 3));
  ExpectVerdict(checker, query, *view, min_rollup,
                CheckCode::kAggregateRewriteUnsound);

  // Mutant 2: read the count column where the sum column belongs.
  Substitute wrong_arg = good;
  wrong_arg.outputs[2].expr =
      Expr::MakeAggregate(AggKind::kSum, Expr::MakeColumn(0, 2));
  ExpectVerdict(checker, query, *view, wrong_arg,
                CheckCode::kAggregateRewriteUnsound);

  // Mutant 3: claim the view's (finer) grouping already matches and skip
  // re-aggregation — each customer would come out once per supplier.
  Substitute no_regroup = good;
  no_regroup.needs_aggregation = false;
  no_regroup.group_by.clear();
  ExpectVerdict(checker, query, *view, no_regroup,
                CheckCode::kGroupingNotEquivalent);

  // Mutant 4: group the rollup by the wrong column.
  Substitute wrong_group = good;
  wrong_group.group_by = {Expr::MakeColumn(0, 1)};
  ExpectVerdict(checker, query, *view, wrong_group,
                CheckCode::kGroupingNotEquivalent);

  // Mutant 5: output the supplier key where the customer key belongs.
  Substitute swapped_key = good;
  swapped_key.outputs[0].expr = Expr::MakeColumn(0, 1);
  ExpectVerdict(checker, query, *view, swapped_key,
                CheckCode::kOutputNotEquivalent);

  // Mutant 6: point the substitute at a different view id.
  Substitute misattributed = good;
  misattributed.view_id = good.view_id + 1;
  ExpectVerdict(checker, query, *view, misattributed,
                CheckCode::kMalformedSubstitute);
}

// Re-registering a view name is a hard error (and must not corrupt the
// catalog or the filter tree).
TEST_F(VerifyCheckerTest, DuplicateViewNameIsRejected) {
  MatchingService service(&catalog_);
  auto make_view = [&]() {
    SpjgBuilder vb(&catalog_);
    int l = vb.AddTable("lineitem");
    vb.Output(vb.Col(l, "l_orderkey"));
    vb.Output(vb.Col(l, "l_partkey"));
    return vb.Build();
  };
  std::string error;
  ASSERT_NE(service.AddView("dup", make_view(), &error), nullptr) << error;
  EXPECT_EQ(service.AddView("dup", make_view(), &error), nullptr);
  EXPECT_NE(error.find("already registered"), std::string::npos) << error;
  EXPECT_EQ(service.views().num_views(), 1);
  EXPECT_EQ(service.filter_tree().num_views(), 1);
  EXPECT_NE(service.views().FindView("dup"), nullptr);
  EXPECT_EQ(service.views().FindView("nope"), nullptr);
}

// Property: on the seeded random TPC-H workload, every substitute the
// matcher emits must be proven — enforce mode never discards anything.
class VerifyPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VerifyPropertyTest, EnforceModeAcceptsEveryMatcherSubstitute) {
  const uint64_t seed = GetParam();
  Catalog catalog;
  tpch::BuildSchema(&catalog, 0.001);

  MatchingService::Options options;
  options.verify_mode = VerifyMode::kEnforce;
  MatchingService service(&catalog, options);

  tpch::WorkloadGenerator view_gen(&catalog, seed * 31 + 1);
  tpch::WorkloadGenerator query_gen(&catalog, seed * 77 + 2);

  // The pinned rollup pair from the correctness harness guarantees at
  // least one aggregate substitute per seed.
  {
    SpjgBuilder vb(&catalog);
    int l = vb.AddTable("lineitem");
    int o = vb.AddTable("orders");
    vb.Where(Expr::MakeCompare(CompareOp::kEq, vb.Col(l, "l_orderkey"),
                               vb.Col(o, "o_orderkey")));
    vb.Output(vb.Col(o, "o_custkey"));
    vb.Output(vb.Col(l, "l_suppkey"));
    vb.Output(Expr::MakeAggregate(AggKind::kCountStar, nullptr), "cnt");
    vb.Output(Expr::MakeAggregate(AggKind::kSum, vb.Col(l, "l_quantity")),
              "sumq");
    vb.GroupBy(vb.Col(o, "o_custkey"));
    vb.GroupBy(vb.Col(l, "l_suppkey"));
    std::string error;
    ASSERT_NE(service.AddView("pinned_agg", vb.Build(), &error), nullptr)
        << error;

    SpjgBuilder qb(&catalog);
    int ql = qb.AddTable("lineitem");
    int qo = qb.AddTable("orders");
    qb.Where(Expr::MakeCompare(CompareOp::kEq, qb.Col(ql, "l_orderkey"),
                               qb.Col(qo, "o_orderkey")));
    qb.Output(qb.Col(qo, "o_custkey"));
    qb.Output(Expr::MakeAggregate(AggKind::kCountStar, nullptr), "n");
    qb.GroupBy(qb.Col(qo, "o_custkey"));
    QueryContext ctx;
    EXPECT_FALSE(service.FindSubstitutes(qb.Build(), ctx).empty());
  }

  for (int i = 0; i < 40; ++i) {
    SpjgQuery def = view_gen.GenerateView();
    std::string error;
    ASSERT_NE(
        service.AddView("v" + std::to_string(seed) + "_" + std::to_string(i),
                        std::move(def), &error),
        nullptr)
        << error;
  }
  for (int j = 0; j < 60; ++j) {
    QueryContext ctx;
    service.FindSubstitutes(query_gen.GenerateQuery(), ctx);
  }

  const VerifyStats& vs = service.verify_stats();
  EXPECT_GT(vs.checked, 0);
  EXPECT_EQ(vs.proven, vs.checked);
  std::string traces;
  for (const auto& t : vs.rejection_traces) traces += t + "\n";
  EXPECT_EQ(vs.rejected, 0) << "false rejections:\n" << traces;
}

INSTANTIATE_TEST_SUITE_P(Seeds, VerifyPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace mvopt
