// End-to-end correctness: every substitute the matcher produces must
// return exactly the same bag of rows as the original query when executed
// against real data. This is the strongest property the paper's algorithm
// promises ("construct a substitute expression equivalent to the given
// expression", §2) and the main integration test of matcher + filter tree
// + engine.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "engine/database.h"
#include "index/matching_service.h"
#include "tpch/datagen.h"
#include "tpch/schema.h"
#include "tpch/workload.h"

namespace mvopt {
namespace {

// Canonical multiset form: one string per row, doubles rounded to cents
// (all generated monetary values are multiples of 0.01, so accumulated
// floating-point error of different evaluation orders stays far from the
// rounding boundary), rows sorted.
std::vector<std::string> Canonicalize(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& r : rows) {
    std::string s;
    for (const Value& v : r) {
      if (v.type() == ValueType::kDouble) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.2f|", v.dbl());
        s += buf;
      } else {
        s += v.ToString() + "|";
      }
    }
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end());
  return out;
}

class RewriteCorrectnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RewriteCorrectnessTest, SubstitutesProduceIdenticalResults) {
  const uint64_t seed = GetParam();
  Catalog catalog;
  tpch::Schema schema = tpch::BuildSchema(&catalog, 0.0003);
  Database db(&catalog);
  tpch::DataGenOptions dg;
  dg.scale_factor = 0.0003;
  dg.seed = seed * 977 + 5;
  tpch::GenerateData(&db, schema, dg);

  MatchingService service(&catalog);
  tpch::WorkloadGenerator view_gen(&catalog, seed * 31 + 1);
  tpch::WorkloadGenerator query_gen(&catalog, seed * 77 + 2);

  constexpr int kNumViews = 40;
  constexpr int kNumQueries = 50;

  std::vector<ViewDefinition*> views;

  // One guaranteed-match pair so every seed exercises the execution
  // comparison even when the random workload happens to produce no hits:
  // an aggregation view strictly wider than a matching query.
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
    ViewDefinition* v = service.AddView("pinned_agg", vb.Build(), &error);
    ASSERT_NE(v, nullptr) << error;
    db.MaterializeView(v);
    views.push_back(v);
  }
  {
    SpjgBuilder qb(&catalog);
    int l = qb.AddTable("lineitem");
    int o = qb.AddTable("orders");
    qb.Where(Expr::MakeCompare(CompareOp::kEq, qb.Col(l, "l_orderkey"),
                               qb.Col(o, "o_orderkey")));
    qb.Output(qb.Col(o, "o_custkey"));
    qb.Output(Expr::MakeAggregate(AggKind::kCountStar, nullptr), "n");
    qb.Output(Expr::MakeAggregate(AggKind::kSum, qb.Col(l, "l_quantity")),
              "q");
    qb.GroupBy(qb.Col(o, "o_custkey"));
    SpjgQuery pinned_query = qb.Build();
    QueryContext ctx;
    auto subs = service.FindSubstitutes(pinned_query, ctx);
    ASSERT_FALSE(subs.empty());
    auto expected = Canonicalize(db.ExecuteSpjg(pinned_query));
    const ViewDefinition& view = service.views().view(subs[0].view_id);
    auto got = Canonicalize(db.ExecuteSpjg(
        subs[0].ToQueryOverView(view.materialized_table())));
    ASSERT_EQ(got, expected) << "pinned rollup substitute diverges";
  }

  for (int i = 0; i < kNumViews; ++i) {
    SpjgQuery def = view_gen.GenerateView();
    std::string error;
    ViewDefinition* v =
        service.AddView("v" + std::to_string(seed) + "_" + std::to_string(i),
                        std::move(def), &error);
    ASSERT_NE(v, nullptr) << error;
    view_gen.AttachDefaultIndexes(v);
    db.MaterializeView(v);
    views.push_back(v);
  }

  int total_substitutes = 0;
  for (int j = 0; j < kNumQueries; ++j) {
    SpjgQuery query = query_gen.GenerateQuery();
    QueryContext ctx;
    std::vector<Substitute> subs = service.FindSubstitutes(query, ctx);
    if (subs.empty()) continue;
    std::vector<std::string> expected = Canonicalize(db.ExecuteSpjg(query));
    for (const Substitute& sub : subs) {
      const ViewDefinition& view = service.views().view(sub.view_id);
      SpjgQuery over_view = sub.ToQueryOverView(view.materialized_table());
      std::vector<std::string> got =
          Canonicalize(db.ExecuteSpjg(over_view));
      ASSERT_EQ(got, expected)
          << "substitute over view '" << view.name()
          << "' diverges for query:\n"
          << query.ToSql(catalog) << "\nsubstitute:\n"
          << over_view.ToSql(catalog);
      ++total_substitutes;
    }
  }
  // Statistical note: at the paper's match rates (~0.04 substitutes per
  // invocation at 100 views) some seeds may legitimately see few random
  // matches; the pinned pair above guarantees the execution comparison
  // always runs.
  (void)total_substitutes;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RewriteCorrectnessTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// The filter tree must never prune a view the exhaustive matcher accepts
// (§4: the partitioning conditions are necessary conditions).
class FilterCompletenessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FilterCompletenessTest, FilterAgreesWithExhaustiveMatching) {
  const uint64_t seed = GetParam();
  Catalog catalog;
  tpch::BuildSchema(&catalog, 0.001);

  MatchingService::Options with;
  with.use_filter_tree = true;
  MatchingService filtered(&catalog, with);
  MatchingService::Options without;
  without.use_filter_tree = false;
  MatchingService exhaustive(&catalog, without);

  tpch::WorkloadGenerator view_gen(&catalog, seed * 13 + 3);
  for (int i = 0; i < 60; ++i) {
    SpjgQuery def = view_gen.GenerateView();
    std::string error;
    ASSERT_NE(filtered.AddView("vf" + std::to_string(i), def, &error),
              nullptr)
        << error;
    ASSERT_NE(exhaustive.AddView("ve" + std::to_string(i), def, &error),
              nullptr)
        << error;
  }

  tpch::WorkloadGenerator query_gen(&catalog, seed * 7 + 11);
  for (int j = 0; j < 60; ++j) {
    SpjgQuery query = query_gen.GenerateQuery();
    QueryContext ctx;
    auto subs_filtered = filtered.FindSubstitutes(query, ctx);
    auto subs_exhaustive = exhaustive.FindSubstitutes(query, ctx);
    // Same set of matched views (substitute construction is
    // deterministic given the view).
    std::vector<ViewId> a;
    std::vector<ViewId> b;
    for (const auto& s : subs_filtered) a.push_back(s.view_id);
    for (const auto& s : subs_exhaustive) b.push_back(s.view_id);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << "filter tree changed the match set for query:\n"
                    << query.ToSql(catalog);
  }
  // Filtering must actually discard most views.
  EXPECT_LT(filtered.stats().candidates, exhaustive.stats().candidates);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FilterCompletenessTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
}  // namespace mvopt
