#include "index/filter_tree.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "rewrite/matcher.h"
#include "rewrite/view_catalog.h"
#include "tpch/schema.h"

namespace mvopt {
namespace {

class FilterTreeTest : public ::testing::Test {
 protected:
  FilterTreeTest()
      : schema_(tpch::BuildSchema(&catalog_)),
        views_(&catalog_) {}

  static ExprPtr Eq(ExprPtr a, ExprPtr b) {
    return Expr::MakeCompare(CompareOp::kEq, std::move(a), std::move(b));
  }
  static ExprPtr Gt(ExprPtr a, int64_t v) {
    return Expr::MakeCompare(CompareOp::kGt, std::move(a),
                             Expr::MakeLiteral(Value::Int64(v)));
  }

  ViewId Add(SpjgQuery def) {
    std::string error;
    ViewDefinition* v = views_.AddView(
        "v" + std::to_string(views_.num_views()), std::move(def), &error);
    EXPECT_NE(v, nullptr) << error;
    tree_.AddView(views_.shared_description(v->id()));
    return v->id();
  }

  std::vector<ViewId> Candidates(const SpjgQuery& query) {
    auto out = tree_.FindCandidates(DescribeQuery(catalog_, query));
    std::sort(out.begin(), out.end());
    return out;
  }

  Catalog catalog_;
  tpch::Schema schema_;
  ViewCatalog views_;
  FilterTree tree_;
};

TEST_F(FilterTreeTest, SourceTableConditionDiscardsMissingTables) {
  SpjgBuilder vb(&catalog_);
  int l = vb.AddTable("lineitem");
  vb.Output(vb.Col(l, "l_orderkey"));
  ViewId lineitem_only = Add(vb.Build());

  // Query joins lineitem and orders: the lineitem-only view must go.
  SpjgBuilder qb(&catalog_);
  int ql = qb.AddTable("lineitem");
  int qo = qb.AddTable("orders");
  qb.Where(Eq(qb.Col(ql, "l_orderkey"), qb.Col(qo, "o_orderkey")));
  qb.Output(qb.Col(ql, "l_orderkey"));
  EXPECT_TRUE(Candidates(qb.Build()).empty());

  // Query over lineitem alone keeps it.
  SpjgBuilder qb2(&catalog_);
  int ql2 = qb2.AddTable("lineitem");
  qb2.Output(qb2.Col(ql2, "l_orderkey"));
  EXPECT_EQ(Candidates(qb2.Build()), std::vector<ViewId>{lineitem_only});
}

TEST_F(FilterTreeTest, HubConditionAdmitsEliminableExtraTables) {
  // View with extra tables orders+customer reachable via FK joins: hub is
  // {lineitem}, so a lineitem-only query keeps it as a candidate.
  SpjgBuilder vb(&catalog_);
  int l = vb.AddTable("lineitem");
  int o = vb.AddTable("orders");
  int c = vb.AddTable("customer");
  vb.Where(Eq(vb.Col(l, "l_orderkey"), vb.Col(o, "o_orderkey")));
  vb.Where(Eq(vb.Col(o, "o_custkey"), vb.Col(c, "c_custkey")));
  vb.Output(vb.Col(l, "l_orderkey"));
  ViewId with_extras = Add(vb.Build());

  SpjgBuilder qb(&catalog_);
  int ql = qb.AddTable("lineitem");
  qb.Output(qb.Col(ql, "l_orderkey"));
  EXPECT_EQ(Candidates(qb.Build()), std::vector<ViewId>{with_extras});
}

TEST_F(FilterTreeTest, HubConditionRejectsNonEliminableExtras) {
  // Join on a non-FK pair: part stays in the hub, so a lineitem-only
  // query prunes the view.
  SpjgBuilder vb(&catalog_);
  int l = vb.AddTable("lineitem");
  int p = vb.AddTable("part");
  vb.Where(Eq(vb.Col(l, "l_suppkey"), vb.Col(p, "p_partkey")));
  vb.Output(vb.Col(l, "l_orderkey"));
  Add(vb.Build());

  SpjgBuilder qb(&catalog_);
  int ql = qb.AddTable("lineitem");
  qb.Output(qb.Col(ql, "l_orderkey"));
  EXPECT_TRUE(Candidates(qb.Build()).empty());
}

TEST_F(FilterTreeTest, OutputColumnConditionUsesEquivalences) {
  // View outputs o_orderkey only; query wants l_orderkey but equates the
  // two, so the view survives the output-column condition.
  SpjgBuilder vb(&catalog_);
  int l = vb.AddTable("lineitem");
  int o = vb.AddTable("orders");
  vb.Where(Eq(vb.Col(l, "l_orderkey"), vb.Col(o, "o_orderkey")));
  vb.Output(vb.Col(o, "o_orderkey"));
  ViewId view = Add(vb.Build());

  SpjgBuilder qb(&catalog_);
  int ql = qb.AddTable("lineitem");
  int qo = qb.AddTable("orders");
  qb.Where(Eq(qb.Col(ql, "l_orderkey"), qb.Col(qo, "o_orderkey")));
  qb.Output(qb.Col(ql, "l_orderkey"));
  EXPECT_EQ(Candidates(qb.Build()), std::vector<ViewId>{view});

  // Without the query-side equality the view still passes the filter —
  // its *extended* output list contains l_orderkey through the view's own
  // equivalence class (§4.2.3 is a necessary condition only). The full
  // matcher then rejects it on equijoin subsumption.
  SpjgBuilder qb2(&catalog_);
  int ql2 = qb2.AddTable("lineitem");
  qb2.AddTable("orders");
  qb2.Output(qb2.Col(ql2, "l_orderkey"));
  SpjgQuery no_equality = qb2.Build();
  EXPECT_EQ(Candidates(no_equality), std::vector<ViewId>{view});
  ViewMatcher matcher(&catalog_);
  MatchResult r = matcher.Match(no_equality, views_.view(view));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.reason, RejectReason::kEquijoinSubsumption);
}

TEST_F(FilterTreeTest, ResidualConditionRequiresSubset) {
  SpjgBuilder vb(&catalog_);
  int p = vb.AddTable("part");
  vb.Where(Expr::MakeLike(vb.Col(p, "p_name"), "%steel%"));
  vb.Output(vb.Col(p, "p_partkey"));
  vb.Output(vb.Col(p, "p_name"));
  ViewId steel = Add(vb.Build());

  // Query without the LIKE: view residual not in query -> pruned.
  SpjgBuilder qb(&catalog_);
  int qp = qb.AddTable("part");
  qb.Output(qb.Col(qp, "p_partkey"));
  EXPECT_TRUE(Candidates(qb.Build()).empty());

  // Query with the same LIKE keeps it.
  SpjgBuilder qb2(&catalog_);
  int qp2 = qb2.AddTable("part");
  qb2.Where(Expr::MakeLike(qb2.Col(qp2, "p_name"), "%steel%"));
  qb2.Output(qb2.Col(qp2, "p_partkey"));
  EXPECT_EQ(Candidates(qb2.Build()), std::vector<ViewId>{steel});

  // Different pattern -> different residual text -> pruned.
  SpjgBuilder qb3(&catalog_);
  int qp3 = qb3.AddTable("part");
  qb3.Where(Expr::MakeLike(qb3.Col(qp3, "p_name"), "%brass%"));
  qb3.Output(qb3.Col(qp3, "p_partkey"));
  EXPECT_TRUE(Candidates(qb3.Build()).empty());
}

TEST_F(FilterTreeTest, RangeConstraintCondition) {
  SpjgBuilder vb(&catalog_);
  int l = vb.AddTable("lineitem");
  vb.Where(Gt(vb.Col(l, "l_partkey"), 100));
  vb.Output(vb.Col(l, "l_partkey"));
  vb.Output(vb.Col(l, "l_orderkey"));
  ViewId ranged = Add(vb.Build());

  // Query with no constraint on l_partkey: the view constrains a column
  // the query does not -> pruned (weak range condition).
  SpjgBuilder qb(&catalog_);
  int ql = qb.AddTable("lineitem");
  qb.Output(qb.Col(ql, "l_orderkey"));
  EXPECT_TRUE(Candidates(qb.Build()).empty());

  // Query constraining the same column passes the filter (the matcher
  // still checks containment of the actual bounds).
  SpjgBuilder qb2(&catalog_);
  int ql2 = qb2.AddTable("lineitem");
  qb2.Where(Gt(qb2.Col(ql2, "l_partkey"), 500));
  qb2.Output(qb2.Col(ql2, "l_orderkey"));
  EXPECT_EQ(Candidates(qb2.Build()), std::vector<ViewId>{ranged});
}

TEST_F(FilterTreeTest, AggViewsInvisibleToSpjQueries) {
  SpjgBuilder vb(&catalog_);
  int l = vb.AddTable("lineitem");
  vb.Output(vb.Col(l, "l_suppkey"));
  vb.Output(Expr::MakeAggregate(AggKind::kCountStar, nullptr), "cnt");
  vb.GroupBy(vb.Col(l, "l_suppkey"));
  Add(vb.Build());

  SpjgBuilder qb(&catalog_);
  int ql = qb.AddTable("lineitem");
  qb.Output(qb.Col(ql, "l_suppkey"));
  EXPECT_TRUE(Candidates(qb.Build()).empty());
}

TEST_F(FilterTreeTest, GroupingConditionsForAggQueries) {
  SpjgBuilder vb(&catalog_);
  int l = vb.AddTable("lineitem");
  vb.Output(vb.Col(l, "l_suppkey"));
  vb.Output(vb.Col(l, "l_partkey"));
  vb.Output(Expr::MakeAggregate(AggKind::kCountStar, nullptr), "cnt");
  vb.Output(Expr::MakeAggregate(AggKind::kSum, vb.Col(l, "l_quantity")),
            "s");
  vb.GroupBy(vb.Col(l, "l_suppkey"));
  vb.GroupBy(vb.Col(l, "l_partkey"));
  ViewId agg = Add(vb.Build());

  // Coarser grouping on a subset: candidate.
  SpjgBuilder qb(&catalog_);
  int ql = qb.AddTable("lineitem");
  qb.Output(qb.Col(ql, "l_suppkey"));
  qb.Output(Expr::MakeAggregate(AggKind::kSum, qb.Col(ql, "l_quantity")),
            "s");
  qb.GroupBy(qb.Col(ql, "l_suppkey"));
  EXPECT_EQ(Candidates(qb.Build()), std::vector<ViewId>{agg});

  // Grouping on a column outside the view grouping: pruned.
  SpjgBuilder qb2(&catalog_);
  int ql2 = qb2.AddTable("lineitem");
  qb2.Output(qb2.Col(ql2, "l_linenumber"));
  qb2.Output(Expr::MakeAggregate(AggKind::kCountStar, nullptr), "n");
  qb2.GroupBy(qb2.Col(ql2, "l_linenumber"));
  EXPECT_TRUE(Candidates(qb2.Build()).empty());

  // SUM over a column the view did not aggregate: pruned by the
  // aggregate-text condition.
  SpjgBuilder qb3(&catalog_);
  int ql3 = qb3.AddTable("lineitem");
  qb3.Output(qb3.Col(ql3, "l_suppkey"));
  qb3.Output(Expr::MakeAggregate(AggKind::kSum, qb3.Col(ql3, "l_tax")),
             "t");
  qb3.GroupBy(qb3.Col(ql3, "l_suppkey"));
  // Note: sum($) text matches any summed column; the column-level
  // distinction is left to the matcher, so the view stays a candidate.
  EXPECT_EQ(Candidates(qb3.Build()), std::vector<ViewId>{agg});
}

TEST_F(FilterTreeTest, RemoveViewDropsItFromCandidates) {
  SpjgBuilder vb(&catalog_);
  int l = vb.AddTable("lineitem");
  vb.Output(vb.Col(l, "l_orderkey"));
  ViewId id = Add(vb.Build());

  SpjgBuilder qb(&catalog_);
  int ql = qb.AddTable("lineitem");
  qb.Output(qb.Col(ql, "l_orderkey"));
  SpjgQuery query = qb.Build();
  EXPECT_EQ(Candidates(query), std::vector<ViewId>{id});
  tree_.RemoveView(views_.description(id));
  EXPECT_TRUE(Candidates(query).empty());
  EXPECT_EQ(tree_.num_views(), 0);
  // Re-adding revives it.
  tree_.AddView(views_.shared_description(id));
  EXPECT_EQ(Candidates(query), std::vector<ViewId>{id});
}

TEST_F(FilterTreeTest, StatsReportRangeRejections) {
  SpjgBuilder vb(&catalog_);
  int l = vb.AddTable("lineitem");
  int o = vb.AddTable("orders");
  vb.Where(Eq(vb.Col(l, "l_orderkey"), vb.Col(o, "o_orderkey")));
  vb.Where(Gt(vb.Col(o, "o_orderkey"), 10));  // nontrivial class: not in
                                              // the reduced (weak) list
  vb.Output(vb.Col(l, "l_orderkey"));
  Add(vb.Build());

  // Query without any range: the weak condition passes (empty reduced
  // list) but the full range condition rejects at the leaf.
  SpjgBuilder qb(&catalog_);
  int ql = qb.AddTable("lineitem");
  int qo = qb.AddTable("orders");
  qb.Where(Eq(qb.Col(ql, "l_orderkey"), qb.Col(qo, "o_orderkey")));
  qb.Output(qb.Col(ql, "l_orderkey"));
  FilterSearchStats stats;
  auto out = tree_.FindCandidates(DescribeQuery(catalog_, qb.Build()),
                                  &stats);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(stats.views_range_checked, 1);
  EXPECT_EQ(stats.views_range_rejected, 1);
}

}  // namespace
}  // namespace mvopt
