#include "index/filter_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "bench/harness.h"
#include "rewrite/matcher.h"
#include "rewrite/view_catalog.h"
#include "tests/filter_oracle.h"
#include "tpch/schema.h"
#include "verify/invariant_auditor.h"

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
    tree_.AddView(views_.description(v->id()));
    return v->id();
  }

  std::vector<ViewId> Candidates(const SpjgQuery& query) {
    QueryContext ctx;
    auto out = tree_.FindCandidates(DescribeQuery(catalog_, query), ctx);
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
  tree_.AddView(views_.description(id));
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
  QueryContext ctx;
  auto out =
      tree_.FindCandidates(DescribeQuery(catalog_, qb.Build()), ctx, &stats);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(stats.views_range_checked, 1);
  EXPECT_EQ(stats.views_range_rejected, 1);
}

// The search-kind counters count the walk each level performs: with
// backjoins off no level scans (the column hitting conditions descend
// from the tops like superset searches); with them on, each probe of a
// relaxed level is one scan. Every level probe is one walk of one kind.
TEST_F(FilterTreeTest, ScanCountsOnlyBackjoinRelaxedLevels) {
  SpjgBuilder sb(&catalog_);
  int sl = sb.AddTable("lineitem");
  sb.Output(sb.Col(sl, "l_suppkey"));
  Add(sb.Build());
  SpjgBuilder vb(&catalog_);
  int l = vb.AddTable("lineitem");
  vb.Output(vb.Col(l, "l_suppkey"));
  vb.Output(Expr::MakeAggregate(AggKind::kCountStar, nullptr), "cnt");
  vb.GroupBy(vb.Col(l, "l_suppkey"));
  Add(vb.Build());

  SpjgBuilder qb(&catalog_);
  int ql = qb.AddTable("lineitem");
  qb.Output(qb.Col(ql, "l_suppkey"));
  qb.Output(Expr::MakeAggregate(AggKind::kCountStar, nullptr), "n");
  qb.GroupBy(qb.Col(ql, "l_suppkey"));
  const QueryDescription query = DescribeQuery(catalog_, qb.Build());
  auto probe = [&](bool backjoins) {
    tree_.set_assume_backjoins(backjoins);
    FilterSearchStats stats;
    QueryContext ctx;
    EXPECT_EQ(tree_.FindCandidates(query, ctx, &stats).size(), 2u);
    int64_t probes = 0;
    for (int64_t p : stats.level_probes) probes += p;
    EXPECT_EQ(stats.subset_searches + stats.superset_searches +
                  stats.scan_searches,
              probes);
    return stats;
  };
  const FilterSearchStats off = probe(false);
  EXPECT_EQ(off.scan_searches, 0);
  const FilterSearchStats on = probe(true);
  auto at = [](const FilterSearchStats& s, FilterLevel level) {
    return s.level_probes[static_cast<size_t>(level)];
  };
  // One output-column scan per tree, grouping scans in the agg tree.
  EXPECT_EQ(on.scan_searches, 4);
  EXPECT_EQ(on.scan_searches, at(on, FilterLevel::kOutputColumns) +
                                  at(on, FilterLevel::kGroupingExprs) +
                                  at(on, FilterLevel::kGroupingColumns));
  EXPECT_EQ(on.superset_searches + on.scan_searches,
            off.superset_searches);
}

TEST_F(FilterTreeTest, RemovingAViewNotOnTheTreeThrowsAndChangesNothing) {
  SpjgBuilder vb(&catalog_);
  int l = vb.AddTable("lineitem");
  vb.Output(vb.Col(l, "l_orderkey"));
  const ViewId on_tree = Add(vb.Build());
  SpjgBuilder wb(&catalog_);
  int w = wb.AddTable("orders");
  wb.Output(wb.Col(w, "o_orderkey"));
  std::string error;
  ViewDefinition* off_tree = views_.AddView("off", wb.Build(), &error);
  ASSERT_NE(off_tree, nullptr) << error;

  InvariantAuditor auditor;
  const uint64_t digest = auditor.TreeDigest(tree_);
  EXPECT_THROW(tree_.RemoveView(views_.description(off_tree->id())),
               std::logic_error);
  EXPECT_EQ(auditor.TreeDigest(tree_), digest);
  tree_.RemoveView(views_.description(on_tree));
  EXPECT_THROW(tree_.RemoveView(views_.description(on_tree)),
               std::logic_error);
  EXPECT_EQ(tree_.num_views(), 0);
}

// --- tails ------------------------------------------------------------------

// Hand-built descriptions: view `Base()` and, for each level j of the
// SPJ order, a view that agrees with it above j and differs at j, so a
// second insert splits the first view's tail exactly there.
class TailSplitTest : public ::testing::Test {
 protected:
  static ViewDescription Base(ViewId id) {
    ViewDescription d;
    d.id = id;
    d.hub = {1};
    d.source_tables = {1};
    d.output_expr_texts = {"a"};
    d.extended_output_columns = {10};
    d.residual_texts = {"r"};
    d.reduced_range_columns = {20};
    d.range_constrained_classes = {{20}};
    return d;
  }
  static ViewDescription DivergingAt(size_t level, ViewId id) {
    ViewDescription d = Base(id);
    switch (oracle::PaperSpjLevels()[level]) {
      case FilterLevel::kHub:
        d.hub = {2};
        break;
      case FilterLevel::kSourceTables:
        d.source_tables = {1, 2};
        break;
      case FilterLevel::kOutputExprs:
        d.output_expr_texts = {"b"};
        break;
      case FilterLevel::kOutputColumns:
        d.extended_output_columns = {10, 11};
        break;
      case FilterLevel::kResidual:
        d.residual_texts = {"s"};
        break;
      default:
        d.reduced_range_columns = {21};
        d.range_constrained_classes = {{21}};
        break;
    }
    return d;
  }
  /// Admits the base view and every diverging one but the hub's.
  static QueryDescription Query() {
    QueryDescription q;
    q.source_tables = {1};
    q.residual_texts = {"r", "s"};
    q.extended_range_columns = {20, 21};
    return q;
  }
  static std::vector<ViewId> Candidates(const FilterTree& tree) {
    QueryContext ctx;
    std::vector<ViewId> out = tree.FindCandidates(Query(), ctx);
    std::sort(out.begin(), out.end());
    return out;
  }
  static std::vector<ViewId> Expected(const std::vector<ViewDescription>& on) {
    std::vector<ViewId> out;
    const uint32_t required = oracle::RequiredMask(oracle::PaperSpjLevels());
    for (const ViewDescription& d : on) {
      if ((oracle::PassMask(d, Query(), false) & required) == required) {
        out.push_back(d.id);
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }
};

TEST_F(TailSplitTest, SplitAtEachLevelCopiesOnlyThePathAndSharesTheSuffix) {
  InvariantAuditor auditor;
  const size_t num_levels = oracle::PaperSpjLevels().size();
  for (size_t j = 0; j < num_levels; ++j) {
    SCOPED_TRACE("diverging at level " + std::to_string(j));
    FilterTree tree;
    const ViewDescription base = Base(0);
    const ViewDescription diverging = DivergingAt(j, 1);
    tree.AddView(base);  // the root's one key leads to a tail
    FilterTree before(tree);
    const uint64_t digest = auditor.TreeDigest(before);
    tree.AddView(diverging);
    // Unshared: the root, one new node per tail level down to the split
    // (the split level's node holds both keys), and the new view's tail
    // below it; the old tail's suffix is re-referenced, not copied. A
    // split at the last level holds both leaves inline.
    const int64_t expected =
        j == 0 ? 2 : static_cast<int64_t>(std::min(j + 2, num_levels));
    EXPECT_EQ(auditor.CountUnsharedNodes(tree, before), expected);
    EXPECT_EQ(auditor.TreeDigest(before), digest);
    EXPECT_EQ(Candidates(before), Expected({base}));
    EXPECT_EQ(Candidates(tree), Expected({base, diverging}));
    EXPECT_EQ(auditor.IndexedViews(tree), (std::vector<ViewId>{0, 1}));

    // A view with the base's keys joins its leaf: one new tail.
    FilterTree with_twin(tree);
    with_twin.AddView(Base(2));
    EXPECT_LE(auditor.CountUnsharedNodes(with_twin, tree),
              static_cast<int64_t>(num_levels));
    EXPECT_EQ(Candidates(with_twin), Expected({base, diverging, Base(2)}));

    // Removing either side keeps the other; removing both empties the
    // tree, and re-adding revives the keys.
    tree.RemoveView(base);
    EXPECT_EQ(Candidates(tree), Expected({diverging}));
    tree.RemoveView(diverging);
    EXPECT_EQ(tree.num_views(), 0);
    FilterSearchStats stats;
    QueryContext ctx;
    EXPECT_TRUE(tree.FindCandidates(Query(), ctx, &stats).empty());
    for (int64_t probes : stats.level_probes) EXPECT_EQ(probes, 0);
    tree.AddView(diverging);
    tree.AddView(base);
    EXPECT_EQ(Candidates(tree), Expected({base, diverging}));
  }
}

// A tail that was split re-references the old tail's suffix; splitting
// that suffix again, deeper, must still answer like the oracle.
TEST_F(TailSplitTest, RepeatedSplitsOfOneTailAnswerLikeTheOracle) {
  FilterTree tree;
  std::vector<ViewDescription> on = {Base(0)};
  tree.AddView(on.back());
  const size_t num_levels = oracle::PaperSpjLevels().size();
  for (size_t j = 1; j < num_levels; ++j) {
    on.push_back(DivergingAt(j, static_cast<ViewId>(j)));
    tree.AddView(on.back());
    EXPECT_EQ(Candidates(tree), Expected(on)) << "after level " << j;
  }
  for (size_t j = 1; j < num_levels; ++j) {
    tree.RemoveView(on[j]);
  }
  EXPECT_EQ(Candidates(tree), Expected({on[0]}));
}

// --- brute-force §4.2 oracle ------------------------------------------------

struct LevelOrder {
  const char* name;
  std::vector<FilterLevel> spj;
  std::vector<FilterLevel> agg;
};

// The level orders bench/ablate_levels compares.
std::vector<LevelOrder> AblationOrders() {
  using FL = FilterLevel;
  const std::vector<FL> spj = oracle::PaperSpjLevels();
  const std::vector<FL> agg = oracle::PaperAggLevels();
  return {
      {"paper", spj, agg},
      {"reversed", {spj.rbegin(), spj.rend()}, {agg.rbegin(), agg.rend()}},
      {"tables-only",
       {FL::kHub, FL::kSourceTables},
       {FL::kHub, FL::kSourceTables}},
      {"source-tables-only", {FL::kSourceTables}, {FL::kSourceTables}},
      {"columns-first",
       {FL::kOutputColumns, FL::kRangeConstraints, FL::kResidual,
        FL::kOutputExprs, FL::kSourceTables, FL::kHub},
       {FL::kGroupingColumns, FL::kGroupingExprs, FL::kOutputColumns,
        FL::kRangeConstraints, FL::kResidual, FL::kOutputExprs,
        FL::kSourceTables, FL::kHub}},
  };
}

class OracleSweepTest : public ::testing::TestWithParam<uint64_t> {};

// Every memo-group signature of a 1,000-view §5 workload (the ones the
// view-matching rule probes), for both trees, with and without the
// backjoin relaxation, under every ablation level order, and after 10%
// of the views are removed and again after they are re-added:
// FindCandidates returns exactly the views the oracle admits.
TEST_P(OracleSweepTest, FindCandidatesEqualsBruteForceOnGroupSignatures) {
  bench::Workload workload(/*num_views=*/1000, /*num_queries=*/150,
                           GetParam());
  auto service = workload.MakeService(1000, /*use_filter_tree=*/true);
  const ViewCatalog& views = service->views();
  ASSERT_EQ(views.num_views(), 1000);
  bench::RecordingSource recorder(service.get());
  Optimizer optimizer(&workload.catalog(), &recorder);
  for (const SpjgQuery& q : workload.queries()) {
    QueryContext ctx;
    (void)optimizer.Optimize(q, ctx);
  }
  std::vector<QueryDescription> signatures;
  for (const SpjgQuery& sig : recorder.signatures()) {
    signatures.push_back(DescribeQuery(workload.catalog(), sig));
  }
  ASSERT_FALSE(signatures.empty());

  // PassMask per (backjoins, signature, view), shared by every order.
  std::vector<std::vector<uint32_t>> masks[2];
  for (int b = 0; b < 2; ++b) {
    for (const QueryDescription& q : signatures) {
      masks[b].emplace_back();
      for (ViewId id = 0; id < views.num_views(); ++id) {
        masks[b].back().push_back(
            oracle::PassMask(views.description(id), q, b == 1));
      }
    }
  }
  std::vector<ViewId> removed;
  for (ViewId id = 0; id < views.num_views(); id += 10) removed.push_back(id);

  InvariantAuditor auditor;
  int64_t candidates = 0;
  for (const LevelOrder& order : AblationOrders()) {
    for (int b = 0; b < 2; ++b) {
      SCOPED_TRACE(std::string(order.name) + (b == 1 ? " +backjoins" : ""));
      FilterTree tree;
      tree.SetLevels(order.spj, order.agg);
      tree.set_assume_backjoins(b == 1);
      for (ViewId id = 0; id < views.num_views(); ++id) {
        tree.AddView(views.description(id));
      }
      const uint32_t spj_required = oracle::RequiredMask(order.spj);
      const uint32_t agg_required = oracle::RequiredMask(order.agg);
      auto check = [&](const std::string& phase,
                       const std::vector<bool>& absent) {
        for (size_t s = 0; s < signatures.size(); ++s) {
          const QueryDescription& q = signatures[s];
          std::vector<ViewId> expected;
          for (ViewId id = 0; id < views.num_views(); ++id) {
            const ViewDescription& v = views.description(id);
            if (absent[id] || (v.is_aggregate && !q.is_aggregate)) continue;
            const uint32_t required = v.is_aggregate ? agg_required
                                                     : spj_required;
            if ((masks[b][s][id] & required) == required) {
              expected.push_back(id);
            }
          }
          QueryContext ctx;
          std::vector<ViewId> got = tree.FindCandidates(q, ctx);
          std::sort(got.begin(), got.end());
          candidates += static_cast<int64_t>(got.size());
          ASSERT_EQ(got, expected) << phase << ", signature " << s;
        }
      };
      std::vector<bool> absent(views.num_views(), false);
      check("all views", absent);
      for (ViewId id : removed) {
        tree.RemoveView(views.description(id));
        absent[id] = true;
      }
      check("10% removed", absent);
      for (ViewId id : removed) {
        tree.AddView(views.description(id));
        absent[id] = false;
      }
      check("re-added", absent);
      if (order.spj.size() == 6 && b == 0 &&
          std::string(order.name) == "paper") {
        const AuditReport report = auditor.AuditFilterTree(tree, views);
        EXPECT_TRUE(report.ok()) << report.Summary();
      }
    }
  }
  EXPECT_GT(candidates, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleSweepTest,
                         ::testing::Values(1, 2, 3, 17));

}  // namespace
}  // namespace mvopt
