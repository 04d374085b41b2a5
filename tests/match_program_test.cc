// Two-tier matching tests (DESIGN.md §16): the compiled tier must be a
// perfect stand-in for the generic oracle. Seeded §5 workload sweeps —
// whole queries against every view, and the memo-group signatures the
// optimizer's view-matching rule actually probes against every
// filter-tree candidate — assert that every verdict a MatchProgram
// reaches (accept or reject, compensations, outputs, reject reasons) is
// structurally identical to ViewMatcher::Match on the same (query, view)
// pair. Targeted §3.2 shapes pin the extra-table compensation: nullable
// foreign keys, FK chains, class merges and CHECK constraints on the
// eliminated tables. An adversarial suite then corrupts a compiled
// program behind the service's back and proves the enforce-mode
// cross-check detects the disagreement, serves the oracle verdict, and
// quarantines the view.

#include "rewrite/match_program.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/harness.h"
#include "index/matching_service.h"
#include "optimizer/optimizer.h"
#include "rewrite/matcher.h"
#include "tpch/schema.h"
#include "tpch/workload.h"

namespace mvopt {
namespace {

bool SameExprList(const std::vector<ExprPtr>& a,
                  const std::vector<ExprPtr>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!a[i]->Equals(*b[i])) return false;
  }
  return true;
}

/// Structural verdict equality, mirroring the service's cross-check:
/// same accept/reject and reason; on accept the same substitute
/// (view, predicates, outputs, group-by, aggregation flag, backjoins),
/// compared node-by-node.
bool SameVerdict(const MatchResult& a, const MatchResult& b) {
  if (a.ok() != b.ok()) return false;
  if (!a.ok()) return a.reason == b.reason;
  const Substitute& x = *a.substitute;
  const Substitute& y = *b.substitute;
  if (x.view_id != y.view_id) return false;
  if (x.needs_aggregation != y.needs_aggregation) return false;
  if (!x.backjoins.empty() || !y.backjoins.empty()) return false;
  if (!SameExprList(x.predicates, y.predicates)) return false;
  if (!SameExprList(x.group_by, y.group_by)) return false;
  if (x.outputs.size() != y.outputs.size()) return false;
  for (size_t i = 0; i < x.outputs.size(); ++i) {
    if (x.outputs[i].name != y.outputs[i].name ||
        !x.outputs[i].expr->Equals(*y.outputs[i].expr)) {
      return false;
    }
  }
  return true;
}

std::string Describe(const MatchResult& r) {
  if (!r.ok()) return std::string("reject(") + RejectReasonName(r.reason) + ")";
  return "accept(preds=" + std::to_string(r.substitute->predicates.size()) +
         ",outputs=" + std::to_string(r.substitute->outputs.size()) +
         ",group_by=" + std::to_string(r.substitute->group_by.size()) +
         (r.substitute->needs_aggregation ? ",agg" : "") + ")";
}

// --- randomized cross-tier equivalence ------------------------------------

class CrossTierPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CrossTierPropertyTest, CompiledVerdictsAreByteIdenticalToOracle) {
  const uint64_t seed = GetParam();
  Catalog catalog;
  tpch::BuildSchema(&catalog, 0.5);
  const MatchOptions mopts;  // defaults: the compiled envelope
  ViewMatcher matcher(&catalog, mopts);
  ViewCatalog views(&catalog);
  tpch::WorkloadGenerator view_gen(&catalog, seed * 19 + 3);
  std::vector<std::shared_ptr<const MatchProgram>> programs;
  for (int i = 0; i < 40; ++i) {
    std::string error;
    ViewDefinition* v = views.AddView("v" + std::to_string(i),
                                      view_gen.GenerateView(), &error);
    ASSERT_NE(v, nullptr) << error;
    programs.push_back(CompileMatchProgram(catalog, *v, mopts));
  }
  const int compiled =
      static_cast<int>(std::count_if(programs.begin(), programs.end(),
                                     [](const auto& p) { return p != nullptr; }));
  // The workload generator never emits self-joins, so every view should
  // land inside the compiled envelope under default options.
  EXPECT_EQ(compiled, views.num_views());

  // Probe with 60 random queries plus every view's own definition — the
  // latter guarantee the accept path runs for every seed (self-matches
  // always succeed), so the sweep covers compensation/output emission,
  // not just rejects.
  tpch::WorkloadGenerator query_gen(&catalog, seed * 23 + 9);
  std::vector<SpjgQuery> probe_queries;
  for (int j = 0; j < 60; ++j) probe_queries.push_back(query_gen.GenerateQuery());
  for (ViewId v = 0; v < views.num_views(); ++v) {
    probe_queries.push_back(views.view(v).query());
  }
  MatchProgramScratch scratch;
  int64_t accepts = 0;
  for (const SpjgQuery& query : probe_queries) {
    MatchProbeContext pctx = BuildMatchProbeContext(catalog, query, mopts);
    for (ViewId v = 0; v < views.num_views(); ++v) {
      MatchResult oracle = matcher.Match(query, views.view(v));
      if (programs[v] == nullptr) continue;
      MatchResult compiled = ExecuteMatchProgram(*programs[v], pctx, scratch);
      if (compiled.ok()) ++accepts;
      EXPECT_TRUE(SameVerdict(compiled, oracle))
          << "tier disagreement on view " << v << ": compiled="
          << Describe(compiled) << " oracle=" << Describe(oracle)
          << "\nquery: " << query.ToSql(catalog)
          << "\nview:  " << views.view(v).query().ToSql(catalog);
    }
  }
  // The sweep must exercise the accept path (at least the self-matches).
  EXPECT_GE(accepts, static_cast<int64_t>(views.num_views()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossTierPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// --- the candidates the view-matching rule actually sees ------------------

class GroupSignatureSweepTest : public ::testing::TestWithParam<uint64_t> {};

// Optimizes a seeded §5 workload (bench::Workload, the fig-3 benches'
// views and queries) and replays every captured group
// signature against every filter-tree candidate: each must reach a
// compiled verdict structurally equal to the oracle's. Group signatures
// have fewer tables than the views covering them, so this is where the
// §3.2 extra-table compensation runs.
TEST_P(GroupSignatureSweepTest, CompiledVerdictEqualsOracleOnFilterCandidates) {
  bench::Workload workload(/*num_views=*/1000, /*num_queries=*/150, GetParam());
  auto service = workload.MakeService(1000, /*use_filter_tree=*/true);
  ASSERT_EQ(service->views().num_views(), 1000);
  bench::RecordingSource recorder(service.get());
  Optimizer optimizer(&workload.catalog(), &recorder);
  for (const SpjgQuery& q : workload.queries()) {
    QueryContext ctx;
    (void)optimizer.Optimize(q, ctx);
  }
  ASSERT_FALSE(recorder.signatures().empty());

  const Catalog& catalog = workload.catalog();
  const MatchOptions mopts;
  MatchProgramScratch scratch;
  int64_t tests = 0, extra_table_tests = 0, extra_table_accepts = 0;
  for (const SpjgQuery& sig : recorder.signatures()) {
    const MatchProbeContext pctx = BuildMatchProbeContext(catalog, sig, mopts);
    QueryContext ctx;
    for (ViewId id : service->filter_tree().FindCandidates(
             DescribeQuery(catalog, sig), ctx)) {
      const ViewDefinition& view = service->views().view(id);
      const std::shared_ptr<const MatchProgram>& program =
          service->views().program(id);
      ASSERT_NE(program, nullptr) << view.query().ToSql(catalog);
      const MatchResult compiled = ExecuteMatchProgram(*program, pctx, scratch);
      const MatchResult oracle = service->matcher().Match(sig, view);
      ++tests;
      if (view.query().num_tables() > sig.num_tables()) {
        ++extra_table_tests;
        if (oracle.ok()) ++extra_table_accepts;
      }
      EXPECT_TRUE(SameVerdict(compiled, oracle))
          << "tier disagreement on view " << id << ": compiled="
          << Describe(compiled) << " oracle=" << Describe(oracle)
          << "\nsignature: " << sig.ToSql(catalog)
          << "\nview:      " << view.query().ToSql(catalog);
    }
  }
  EXPECT_GT(tests, 0);
  // The sweep must reach the §3.2 compensation, not just its rejects.
  EXPECT_GT(extra_table_tests, 0);
  EXPECT_GT(extra_table_accepts, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GroupSignatureSweepTest,
                         ::testing::Values(1, 2, 3, 17));

// --- targeted §3.2 shapes ---------------------------------------------------

/// Each case runs one (query, view) pair through both tiers, requires
/// identical verdicts, and pins the expected outcome so the shape is
/// really exercised. One scratch serves every pair of a test, as one
/// worker's scratch serves every candidate of a probe.
class ExtraTableShapesTest : public ::testing::Test {
 protected:
  MatchResult BothTiers(const Catalog& catalog, const SpjgQuery& query,
                        const SpjgQuery& view_def,
                        const MatchOptions& mopts = MatchOptions()) {
    ViewDefinition view(0, "v", view_def);
    const MatchResult oracle = ViewMatcher(&catalog, mopts).Match(query, view);
    auto program = CompileMatchProgram(catalog, view, mopts);
    EXPECT_NE(program, nullptr);
    if (program == nullptr) return oracle;
    const MatchProbeContext pctx =
        BuildMatchProbeContext(catalog, query, mopts);
    const MatchResult compiled = ExecuteMatchProgram(*program, pctx, scratch_);
    EXPECT_TRUE(SameVerdict(compiled, oracle))
        << "compiled=" << Describe(compiled) << " oracle=" << Describe(oracle)
        << "\nquery: " << query.ToSql(catalog)
        << "\nview:  " << view_def.ToSql(catalog);
    return oracle;
  }

  static ExprPtr Eq(ExprPtr a, ExprPtr b) {
    return Expr::MakeCompare(CompareOp::kEq, std::move(a), std::move(b));
  }
  static ExprPtr Cmp(CompareOp op, ExprPtr col, Value v) {
    return Expr::MakeCompare(op, std::move(col), Expr::MakeLiteral(v));
  }

  MatchProgramScratch scratch_;
};

// (a) A nullable FK edge is usable only under a null-rejecting query
// predicate on the FK column (§3.2, last paragraph).
TEST_F(ExtraTableShapesTest, NullableForeignKeyNeedsNullRejection) {
  Catalog catalog;
  TableDef* dim = catalog.CreateTable("dim");
  const ColumnOrdinal d_id = dim->AddColumn("d_id", ValueType::kInt64, true);
  dim->AddColumn("d_attr", ValueType::kInt64, true);
  dim->AddUniqueKey({d_id});
  TableDef* fact = catalog.CreateTable("fact");
  const ColumnOrdinal f_id = fact->AddColumn("f_id", ValueType::kInt64, true);
  const ColumnOrdinal f_dim =
      fact->AddColumn("f_dim", ValueType::kInt64, /*not_null=*/false);
  fact->AddColumn("f_val", ValueType::kInt64, true);
  fact->AddUniqueKey({f_id});
  fact->AddForeignKey({{f_dim}, dim->id(), {d_id}});

  // The view outputs d_id, not f_dim: the query's f_dim range can only
  // route through the class the eliminated join adds (f_dim = d_id).
  SpjgBuilder vb(&catalog);
  const int vf = vb.AddTable("fact");
  const int vd = vb.AddTable("dim");
  vb.Where(Eq(vb.Col(vf, "f_dim"), vb.Col(vd, "d_id")));
  vb.Output(vb.Col(vf, "f_id"));
  vb.Output(vb.Col(vd, "d_id"));
  vb.Output(vb.Col(vf, "f_val"));
  const SpjgQuery view = vb.Build();

  auto query = [&](bool null_rejecting) {
    SpjgBuilder qb(&catalog);
    const int f = qb.AddTable("fact");
    if (null_rejecting) {
      qb.Where(Cmp(CompareOp::kGt, qb.Col(f, "f_dim"), Value::Int64(5)));
    }
    qb.Output(qb.Col(f, "f_id"));
    qb.Output(qb.Col(f, "f_val"));
    return qb.Build();
  };

  const MatchResult with = BothTiers(catalog, query(true), view);
  ASSERT_TRUE(with.ok()) << Describe(with);
  ASSERT_EQ(with.substitute->predicates.size(), 1u);
  EXPECT_EQ(with.substitute->predicates[0]->ToString(),
            Cmp(CompareOp::kGt, Expr::MakeColumn(0, 1), Value::Int64(5))
                ->ToString());

  const MatchResult without = BothTiers(catalog, query(false), view);
  EXPECT_EQ(without.reason, RejectReason::kExtraTableElimination);

  MatchOptions strict;
  strict.allow_nullable_fk_with_null_rejection = false;
  const MatchResult off = BothTiers(catalog, query(true), view, strict);
  EXPECT_EQ(off.reason, RejectReason::kExtraTableElimination);
}

// (b) A two-hop chain lineitem -> orders -> customer probed by a
// lineitem-only signature: both hops are eliminated, and the query's
// columns route, group and aggregate through the eliminated joins.
TEST_F(ExtraTableShapesTest, TwoHopChainProbedBySingleTable) {
  Catalog catalog;
  tpch::BuildSchema(&catalog, 0.5);
  auto chain_view = [&](bool join_customer, bool aggregate,
                        std::optional<double> min_price) {
    SpjgBuilder vb(&catalog);
    const int l = vb.AddTable("lineitem");
    const int o = vb.AddTable("orders");
    const int c = vb.AddTable("customer");
    vb.Where(Eq(vb.Col(l, "l_orderkey"), vb.Col(o, "o_orderkey")));
    if (join_customer) {
      vb.Where(Eq(vb.Col(o, "o_custkey"), vb.Col(c, "c_custkey")));
    }
    if (min_price.has_value()) {
      vb.Where(Cmp(CompareOp::kGt, vb.Col(o, "o_totalprice"),
                   Value::Double(*min_price)));
    }
    vb.Output(vb.Col(o, "o_orderkey"));
    if (aggregate) {
      vb.Output(Expr::MakeAggregate(AggKind::kCountStar, nullptr), "cnt");
      vb.Output(Expr::MakeAggregate(AggKind::kSum, vb.Col(l, "l_quantity")),
                "sumq");
      vb.GroupBy(vb.Col(o, "o_orderkey"));
    } else {
      vb.Output(vb.Col(l, "l_quantity"));
      vb.Output(vb.Col(c, "c_name"));
    }
    return vb.Build();
  };
  SpjgBuilder qb(&catalog);
  const int l = qb.AddTable("lineitem");
  qb.Where(Cmp(CompareOp::kGt, qb.Col(l, "l_quantity"), Value::Int64(10)));
  qb.Output(qb.Col(l, "l_orderkey"));
  qb.Output(qb.Col(l, "l_quantity"));
  const SpjgQuery spj_query = qb.Build();

  const MatchResult accepted =
      BothTiers(catalog, spj_query, chain_view(true, false, std::nullopt));
  ASSERT_TRUE(accepted.ok()) << Describe(accepted);
  // l_orderkey is not a view output; o_orderkey is, through the
  // eliminated lineitem -> orders join.
  EXPECT_EQ(accepted.substitute->outputs[0].expr->ToString(),
            Expr::MakeColumn(0, 0)->ToString());

  // Customer is not joined: it cannot be eliminated.
  EXPECT_EQ(BothTiers(catalog, spj_query,
                      chain_view(false, false, std::nullopt))
                .reason,
            RejectReason::kExtraTableElimination);
  // A view range on the eliminated orders table is not implied.
  EXPECT_EQ(BothTiers(catalog, spj_query, chain_view(true, false, 1000.0))
                .reason,
            RejectReason::kRangeSubsumption);

  // Aggregated: the query's l_orderkey grouping matches the view's
  // o_orderkey grouping through the eliminated join.
  SpjgBuilder ab(&catalog);
  const int al = ab.AddTable("lineitem");
  ab.Output(ab.Col(al, "l_orderkey"));
  ab.Output(Expr::MakeAggregate(AggKind::kSum, ab.Col(al, "l_quantity")), "q");
  ab.GroupBy(ab.Col(al, "l_orderkey"));
  const MatchResult rollup =
      BothTiers(catalog, ab.Build(), chain_view(true, true, std::nullopt));
  ASSERT_TRUE(rollup.ok()) << Describe(rollup);
  EXPECT_FALSE(rollup.substitute->needs_aggregation);
}

// (c) Join equalities of an eliminated table merge two query classes:
// hub's composite FK (h_a, h_b) references pair(p_k1, p_k2), and pair's
// CHECK (p_k1 = p_k2) makes h_a = h_b. The merged class takes the
// smaller id, which reorders the range compensation; a table referenced
// from two query tables is not eliminable at all.
TEST_F(ExtraTableShapesTest, EliminatedJoinMergesQueryClasses) {
  Catalog catalog;
  TableDef* pair = catalog.CreateTable("pair");
  const ColumnOrdinal p_k1 = pair->AddColumn("p_k1", ValueType::kInt64, true);
  const ColumnOrdinal p_k2 = pair->AddColumn("p_k2", ValueType::kInt64, true);
  pair->AddColumn("p_val", ValueType::kInt64, true);
  pair->AddUniqueKey({p_k1, p_k2});
  pair->AddCheckConstraint(
      Eq(Expr::MakeColumn(0, p_k1), Expr::MakeColumn(0, p_k2)));
  TableDef* hub = catalog.CreateTable("hub");
  const ColumnOrdinal h_id = hub->AddColumn("h_id", ValueType::kInt64, true);
  const ColumnOrdinal h_a = hub->AddColumn("h_a", ValueType::kInt64, true);
  hub->AddColumn("h_val", ValueType::kInt64, true);
  const ColumnOrdinal h_b = hub->AddColumn("h_b", ValueType::kInt64, true);
  hub->AddUniqueKey({h_id});
  hub->AddForeignKey({{h_a, h_b}, pair->id(), {p_k1, p_k2}});
  TableDef* side = catalog.CreateTable("side");
  const ColumnOrdinal s_id = side->AddColumn("s_id", ValueType::kInt64, true);
  const ColumnOrdinal s_b = side->AddColumn("s_b", ValueType::kInt64, true);
  const ColumnOrdinal s_c = side->AddColumn("s_c", ValueType::kInt64, true);
  side->AddColumn("s_val", ValueType::kInt64, true);
  side->AddUniqueKey({s_id});
  side->AddForeignKey({{s_b, s_c}, pair->id(), {p_k1, p_k2}});

  struct ViewSpec {
    bool join_side = true;         // h_b = s_b
    bool output_s_b = false;
    std::optional<int64_t> p_k1_min;
    bool side_references_pair = false;  // s_b = p_k1, s_c = p_k2
  };
  auto view = [&](const ViewSpec& spec) {
    SpjgBuilder vb(&catalog);
    const int h = vb.AddTable("hub");
    const int s = vb.AddTable("side");
    const int p = vb.AddTable("pair");
    vb.Where(Eq(vb.Col(h, "h_a"), vb.Col(p, "p_k1")));
    vb.Where(Eq(vb.Col(h, "h_b"), vb.Col(p, "p_k2")));
    if (spec.join_side) vb.Where(Eq(vb.Col(h, "h_b"), vb.Col(s, "s_b")));
    if (spec.side_references_pair) {
      vb.Where(Eq(vb.Col(s, "s_b"), vb.Col(p, "p_k1")));
      vb.Where(Eq(vb.Col(s, "s_c"), vb.Col(p, "p_k2")));
    }
    if (spec.p_k1_min.has_value()) {
      vb.Where(Cmp(CompareOp::kGt, vb.Col(p, "p_k1"),
                   Value::Int64(*spec.p_k1_min)));
    }
    vb.Output(vb.Col(h, "h_id"));
    vb.Output(vb.Col(h, "h_a"));
    if (spec.output_s_b) vb.Output(vb.Col(s, "s_b"));
    vb.Output(vb.Col(s, "s_val"));
    vb.Output(vb.Col(h, "h_val"));
    return vb.Build();
  };
  auto query = [&](std::optional<int64_t> h_a_min) {
    SpjgBuilder qb(&catalog);
    const int h = qb.AddTable("hub");
    const int s = qb.AddTable("side");
    qb.Where(Eq(qb.Col(h, "h_b"), qb.Col(s, "s_b")));
    qb.Where(Cmp(CompareOp::kLt, qb.Col(h, "h_val"), Value::Int64(100)));
    qb.Where(Cmp(CompareOp::kGt, qb.Col(h, "h_b"), Value::Int64(3)));
    if (h_a_min.has_value()) {
      qb.Where(Cmp(CompareOp::kGt, qb.Col(h, "h_a"), Value::Int64(*h_a_min)));
    }
    qb.Output(qb.Col(h, "h_id"));
    qb.Output(qb.Col(s, "s_val"));
    return qb.Build();
  };

  // h_b's class (with s_b) merges into h_a's, whose id is smaller than
  // h_val's: its range compensation is now emitted first.
  const MatchResult merged = BothTiers(catalog, query(std::nullopt), view({}));
  ASSERT_TRUE(merged.ok()) << Describe(merged);
  ASSERT_EQ(merged.substitute->predicates.size(), 2u);
  EXPECT_EQ(merged.substitute->predicates[0]->ToString(),
            Cmp(CompareOp::kGt, Expr::MakeColumn(0, 1), Value::Int64(3))
                ->ToString());
  EXPECT_EQ(merged.substitute->predicates[1]->ToString(),
            Cmp(CompareOp::kLt, Expr::MakeColumn(0, 3), Value::Int64(100))
                ->ToString());

  // A view range on the eliminated key: the merged class's query range
  // must be inside it.
  ViewSpec ranged;
  ranged.p_k1_min = 10;
  EXPECT_EQ(BothTiers(catalog, query(std::nullopt), view(ranged)).reason,
            RejectReason::kRangeSubsumption);
  const MatchResult tight = BothTiers(catalog, query(12), view(ranged));
  ASSERT_TRUE(tight.ok()) << Describe(tight);

  // The view does not equate h_b with s_b: two view classes share the
  // merged query class and are chained by a compensating equality...
  ViewSpec unjoined;
  unjoined.join_side = false;
  unjoined.output_s_b = true;
  const MatchResult chained =
      BothTiers(catalog, query(std::nullopt), view(unjoined));
  ASSERT_TRUE(chained.ok()) << Describe(chained);
  EXPECT_EQ(chained.substitute->predicates[0]->ToString(),
            Eq(Expr::MakeColumn(0, 1), Expr::MakeColumn(0, 2))->ToString());
  // ...which needs s_b among the view outputs.
  unjoined.output_s_b = false;
  EXPECT_EQ(BothTiers(catalog, query(std::nullopt), view(unjoined)).reason,
            RejectReason::kCompensationNotComputable);

  // pair referenced from both query tables has two incoming edges.
  ViewSpec shared;
  shared.side_references_pair = true;
  EXPECT_EQ(BothTiers(catalog, query(std::nullopt), view(shared)).reason,
            RejectReason::kExtraTableElimination);
}

// (d) CHECK constraints of an eliminated table take part in the
// equality, range and residual subsumption tests.
TEST_F(ExtraTableShapesTest, ExtraTableCheckConstraints) {
  Catalog catalog;
  const tpch::Schema schema = tpch::BuildSchema(&catalog, 0.5);
  TableDef& orders = catalog.mutable_table(schema.orders);
  const ColumnOrdinal o_totalprice = *orders.FindColumn("o_totalprice");
  const ColumnOrdinal o_orderstatus = *orders.FindColumn("o_orderstatus");
  const ColumnOrdinal o_shippriority = *orders.FindColumn("o_shippriority");
  const ColumnOrdinal o_custkey = *orders.FindColumn("o_custkey");
  orders.AddCheckConstraint(Cmp(CompareOp::kGe,
                                Expr::MakeColumn(0, o_totalprice),
                                Value::Double(1.0)));
  orders.AddCheckConstraint(
      Expr::MakeLike(Expr::MakeColumn(0, o_orderstatus), "%"));
  orders.AddCheckConstraint(Eq(Expr::MakeColumn(0, o_shippriority),
                               Expr::MakeColumn(0, o_custkey)));

  SpjgBuilder qb(&catalog);
  const int ql = qb.AddTable("lineitem");
  qb.Where(Cmp(CompareOp::kGt, qb.Col(ql, "l_quantity"), Value::Int64(10)));
  qb.Output(qb.Col(ql, "l_orderkey"));
  qb.Output(qb.Col(ql, "l_quantity"));
  const SpjgQuery query = qb.Build();

  auto view = [&](auto&& extra_conjunct) {
    SpjgBuilder vb(&catalog);
    const int l = vb.AddTable("lineitem");
    const int o = vb.AddTable("orders");
    vb.Where(Eq(vb.Col(l, "l_orderkey"), vb.Col(o, "o_orderkey")));
    vb.Where(extra_conjunct(vb, o));
    vb.Output(vb.Col(l, "l_orderkey"));
    vb.Output(vb.Col(l, "l_quantity"));
    return vb.Build();
  };
  auto price_above = [](double bound) {
    return [bound](SpjgBuilder& vb, int o) {
      return Cmp(CompareOp::kGt, vb.Col(o, "o_totalprice"),
                 Value::Double(bound));
    };
  };
  auto status_like = [](std::string pattern) {
    return [pattern](SpjgBuilder& vb, int o) {
      return Expr::MakeLike(vb.Col(o, "o_orderstatus"), pattern);
    };
  };
  auto shippriority_equals = [](std::string column) {
    return [column](SpjgBuilder& vb, int o) {
      return Eq(vb.Col(o, "o_shippriority"), vb.Col(o, column));
    };
  };

  // Range: CHECK (o_totalprice >= 1) implies > 0, not > 5.
  EXPECT_TRUE(BothTiers(catalog, query, view(price_above(0.0))).ok());
  EXPECT_EQ(BothTiers(catalog, query, view(price_above(5.0))).reason,
            RejectReason::kRangeSubsumption);
  // Residual: CHECK (o_orderstatus LIKE '%') discharges the same
  // residual and nothing else.
  EXPECT_TRUE(BothTiers(catalog, query, view(status_like("%"))).ok());
  EXPECT_EQ(BothTiers(catalog, query, view(status_like("F%"))).reason,
            RejectReason::kResidualSubsumption);
  // Equality: CHECK (o_shippriority = o_custkey) joins the two columns'
  // extended classes, but not o_shippriority with o_orderkey.
  EXPECT_TRUE(
      BothTiers(catalog, query, view(shippriority_equals("o_custkey"))).ok());
  EXPECT_EQ(
      BothTiers(catalog, query, view(shippriority_equals("o_orderkey"))).reason,
      RejectReason::kEquijoinSubsumption);

  // With check constraints off, none of them helps.
  MatchOptions no_checks;
  no_checks.use_check_constraints = false;
  EXPECT_EQ(BothTiers(catalog, query, view(price_above(0.0)), no_checks).reason,
            RejectReason::kRangeSubsumption);
  EXPECT_EQ(BothTiers(catalog, query, view(status_like("%")), no_checks).reason,
            RejectReason::kResidualSubsumption);
  EXPECT_EQ(BothTiers(catalog, query, view(shippriority_equals("o_custkey")),
                      no_checks)
                .reason,
            RejectReason::kEquijoinSubsumption);
}

// Every compiled view must accept a query identical to its own
// definition: the simplest completeness property of the fast tier.
TEST(CrossTierSelfMatchTest, CompiledViewsDecideAndAcceptThemselves) {
  Catalog catalog;
  tpch::BuildSchema(&catalog, 0.5);
  const MatchOptions mopts;
  tpch::WorkloadGenerator gen(&catalog, 424242);
  MatchProgramScratch scratch;
  for (int i = 0; i < 60; ++i) {
    SpjgQuery def = gen.GenerateView();
    ViewDefinition view(0, "self", def);
    auto program = CompileMatchProgram(catalog, view, mopts);
    ASSERT_NE(program, nullptr);
    MatchProbeContext pctx = BuildMatchProbeContext(catalog, def, mopts);
    MatchResult compiled = ExecuteMatchProgram(*program, pctx, scratch);
    ASSERT_TRUE(compiled.ok())
        << Describe(compiled) << "\n" << def.ToSql(catalog);
  }
}

// Views outside the envelope must compile to nullptr, not to a program
// that misbehaves: self-joins, backjoin mode, zero mapping budget.
TEST(CompiledEnvelopeTest, OutOfEnvelopeViewsDeclineToCompile) {
  Catalog catalog;
  tpch::BuildSchema(&catalog, 0.5);
  tpch::WorkloadGenerator gen(&catalog, 7);
  SpjgQuery def = gen.GenerateView();
  ViewDefinition view(0, "v", def);

  MatchOptions backjoins;
  backjoins.enable_backjoins = true;
  EXPECT_EQ(CompileMatchProgram(catalog, view, backjoins), nullptr);

  MatchOptions no_budget;
  no_budget.max_table_mappings = 0;
  EXPECT_EQ(CompileMatchProgram(catalog, view, no_budget), nullptr);

  // Self-join FROM list: lineitem twice.
  SpjgBuilder sb(&catalog);
  int a = sb.AddTable("lineitem", "l1");
  int b = sb.AddTable("lineitem", "l2");
  sb.Where(Expr::MakeCompare(CompareOp::kEq, sb.Col(a, "l_orderkey"),
                             sb.Col(b, "l_orderkey")));
  sb.Output(sb.Col(a, "l_orderkey"));
  SpjgQuery self_join = sb.Build();
  ASSERT_FALSE(ViewDefinition::Validate(self_join).has_value());
  ViewDefinition sj(0, "sj", std::move(self_join));
  EXPECT_EQ(CompileMatchProgram(catalog, sj, MatchOptions()), nullptr);
}

// --- service-level tier accounting ----------------------------------------

TEST(TierAccountingTest, CompiledHitsPlusFallbacksEqualsFullTests) {
  Catalog catalog;
  tpch::BuildSchema(&catalog, 0.5);
  MatchingService::Options opts;
  opts.use_filter_tree = false;  // every view is a candidate
  MatchingService service(&catalog, opts);
  tpch::WorkloadGenerator view_gen(&catalog, 11);
  for (int i = 0; i < 24; ++i) {
    std::string error;
    ASSERT_NE(service.AddView("v" + std::to_string(i), view_gen.GenerateView(),
                              &error),
              nullptr)
        << error;
  }
  tpch::WorkloadGenerator query_gen(&catalog, 13);
  for (int j = 0; j < 30; ++j) {
    QueryContext ctx;
    (void)service.FindSubstitutes(query_gen.GenerateQuery(), ctx);
  }
  MatchingStats stats = service.stats();
  EXPECT_EQ(stats.compiled_hits + stats.compiled_fallbacks, stats.full_tests);
  EXPECT_GT(stats.compiled_hits, 0);
  // Every workload view compiles, and a view with a program is decided
  // by it — extra-table candidates included.
  EXPECT_EQ(stats.compiled_fallbacks, 0);
  EXPECT_EQ(stats.cross_check_mismatches, 0);
}

TEST(TierAccountingTest, DisablingCompilationRoutesEverythingGeneric) {
  Catalog catalog;
  tpch::BuildSchema(&catalog, 0.5);
  MatchingService::Options opts;
  opts.compile_match_programs = false;
  opts.use_filter_tree = false;
  MatchingService service(&catalog, opts);
  tpch::WorkloadGenerator view_gen(&catalog, 11);
  for (int i = 0; i < 12; ++i) {
    std::string error;
    ASSERT_NE(service.AddView("v" + std::to_string(i), view_gen.GenerateView(),
                              &error),
              nullptr)
        << error;
  }
  tpch::WorkloadGenerator query_gen(&catalog, 13);
  for (int j = 0; j < 12; ++j) {
    QueryContext ctx;
    (void)service.FindSubstitutes(query_gen.GenerateQuery(), ctx);
  }
  MatchingStats stats = service.stats();
  EXPECT_GT(stats.full_tests, 0);
  EXPECT_EQ(stats.compiled_hits, 0);
  EXPECT_EQ(stats.compiled_fallbacks, stats.full_tests);
}

// Enforce-mode cross-check on an honest catalog: every compiled verdict
// replays identically against the oracle.
TEST(CrossCheckTest, HonestCatalogSurvivesEnforceMode) {
  Catalog catalog;
  tpch::BuildSchema(&catalog, 0.5);
  MatchingService::Options opts;
  opts.cross_check = MatchCrossCheck::kEnforce;
  opts.use_filter_tree = false;
  MatchingService service(&catalog, opts);
  tpch::WorkloadGenerator view_gen(&catalog, 31);
  for (int i = 0; i < 24; ++i) {
    std::string error;
    ASSERT_NE(service.AddView("v" + std::to_string(i), view_gen.GenerateView(),
                              &error),
              nullptr)
        << error;
  }
  tpch::WorkloadGenerator query_gen(&catalog, 37);
  for (int j = 0; j < 30; ++j) {
    QueryContext ctx;
    (void)service.FindSubstitutes(query_gen.GenerateQuery(), ctx);
  }
  MatchingStats stats = service.stats();
  EXPECT_GT(stats.compiled_hits, 0);
  EXPECT_EQ(stats.cross_check_mismatches, 0);
  for (ViewId v = 0; v < service.views().num_views(); ++v) {
    EXPECT_FALSE(service.IsQuarantined(v)) << "view " << v;
  }
}

// --- adversarial mutant ---------------------------------------------------

/// Fixture: one simple SPJ view over lineitem plus a query it accepts,
/// so a corrupted program produces a *decided but wrong* verdict (the
/// mutant flips view_is_aggregate, turning the accept into a
/// view-more-aggregated reject).
class MutantProgramTest : public ::testing::Test {
 protected:
  MutantProgramTest() { tpch::BuildSchema(&catalog_, 0.5); }

  SpjgQuery LineitemQuery(int64_t bound) {
    SpjgBuilder b(&catalog_);
    int l = b.AddTable("lineitem");
    b.Where(Expr::MakeCompare(CompareOp::kGt, b.Col(l, "l_quantity"),
                              Expr::MakeLiteral(Value::Int64(bound))));
    b.Output(b.Col(l, "l_orderkey"));
    b.Output(b.Col(l, "l_quantity"));
    return b.Build();
  }

  /// Registers the view and installs a corrupted copy of its compiled
  /// program (aggregate flag flipped).
  ViewId RegisterAndCorrupt(MatchingService* service) {
    std::string error;
    ViewDefinition* v = service->AddView("mutant", LineitemQuery(10), &error);
    EXPECT_NE(v, nullptr) << error;
    const ViewId id = v->id();
    auto original = service->views().program(id);
    EXPECT_NE(original, nullptr);
    auto mutant = std::make_shared<MatchProgram>(*original);
    mutant->view_is_aggregate = !mutant->view_is_aggregate;
    service->ReplaceProgramForTest(id, std::move(mutant));
    return id;
  }

  Catalog catalog_;
};

TEST_F(MutantProgramTest, LogModeCountsMismatchesAndKeepsServing) {
  MatchingService service(&catalog_);
  const ViewId id = RegisterAndCorrupt(&service);
  service.set_cross_check(MatchCrossCheck::kLog);

  QueryContext ctx;
  std::vector<Substitute> subs =
      service.FindSubstitutes(LineitemQuery(20), ctx);
  MatchingStats stats = service.stats();
  EXPECT_EQ(stats.cross_check_mismatches, 1);
  // Log mode observes but does not override: the (wrong) compiled
  // verdict stands, so the mutant's bogus reject drops the substitute —
  // and the view stays in rotation.
  EXPECT_TRUE(subs.empty());
  EXPECT_FALSE(service.IsQuarantined(id));
}

TEST_F(MutantProgramTest, EnforceModeServesOracleVerdictAndQuarantines) {
  MatchingService::Options opts;
  opts.quarantine_threshold = 1;
  MatchingService service(&catalog_, opts);
  const ViewId id = RegisterAndCorrupt(&service);

  // Off: the corrupted program silently wins (this is exactly the hazard
  // the cross-check exists to catch).
  QueryContext ctx;
  ASSERT_TRUE(service.FindSubstitutes(LineitemQuery(20), ctx).empty());
  EXPECT_EQ(service.stats().cross_check_mismatches, 0);

  service.set_cross_check(MatchCrossCheck::kEnforce);
  std::vector<Substitute> subs =
      service.FindSubstitutes(LineitemQuery(20), ctx);
  MatchingStats stats = service.stats();
  EXPECT_EQ(stats.cross_check_mismatches, 1);
  // Enforce replaces the compiled verdict with the oracle's: the
  // substitute IS produced on the detecting probe...
  ASSERT_EQ(subs.size(), 1u);
  EXPECT_EQ(subs[0].view_id, id);
  // ...and the lying view is quarantined out of subsequent probes.
  EXPECT_TRUE(service.IsQuarantined(id));
  EXPECT_TRUE(service.FindSubstitutes(LineitemQuery(20), ctx).empty());
  EXPECT_GT(service.stats().quarantine_skips, 0);
}

TEST_F(MutantProgramTest, HonestProgramPassesEnforceUntouched) {
  MatchingService::Options opts;
  opts.quarantine_threshold = 1;
  opts.cross_check = MatchCrossCheck::kEnforce;
  MatchingService service(&catalog_, opts);
  std::string error;
  ViewDefinition* v = service.AddView("honest", LineitemQuery(10), &error);
  ASSERT_NE(v, nullptr) << error;

  QueryContext ctx;
  std::vector<Substitute> subs =
      service.FindSubstitutes(LineitemQuery(20), ctx);
  ASSERT_EQ(subs.size(), 1u);
  MatchingStats stats = service.stats();
  EXPECT_EQ(stats.cross_check_mismatches, 0);
  EXPECT_EQ(stats.compiled_hits, stats.full_tests);
  EXPECT_FALSE(service.IsQuarantined(v->id()));
}

}  // namespace
}  // namespace mvopt
