// InvariantAuditor tests: the live structures built by the real code must
// audit clean (including after deletions and revivals), the optimizer's
// memo must audit clean on real workloads, and hand-built corrupted memo
// snapshots must be flagged.

#include "verify/invariant_auditor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "index/matching_service.h"
#include "optimizer/optimizer.h"
#include "rewrite/view_catalog.h"
#include "tpch/schema.h"
#include "tpch/workload.h"

namespace mvopt {
namespace {

using Key = LatticeIndex::Key;

TEST(LatticeAuditTest, BuiltLatticePassesIncludingAfterErase) {
  LatticeIndex index;
  // A mix of nested, overlapping and disjoint keys.
  std::vector<LatticeIndex::Key> keys = {
      {},        {1},       {2},          {1, 2},    {1, 2, 3},
      {2, 3},    {3, 4},    {1, 2, 3, 4}, {5},       {1, 5},
      {2, 3, 5}, {4, 5},    {1, 2, 5},    {3},       {1, 3},
  };
  for (const auto& k : keys) index.Insert(k);

  InvariantAuditor auditor;
  EXPECT_TRUE(auditor.AuditLattice(index).ok())
      << auditor.AuditLattice(index).Summary();

  // Lazy deletion keeps erased nodes as waypoints; structure must hold.
  index.Erase(Key{1, 2});
  index.Erase(Key{3, 4});
  index.Erase(Key{});
  EXPECT_TRUE(auditor.AuditLattice(index).ok())
      << auditor.AuditLattice(index).Summary();

  // Revival.
  index.Insert(Key{1, 2});
  index.Insert(Key{2, 3, 4});
  EXPECT_TRUE(auditor.AuditLattice(index).ok())
      << auditor.AuditLattice(index).Summary();
}

}  // namespace

// Corrupts a lattice's postings, which no public member can do.
class LatticeIndexTestPeer {
 public:
  static void FlipPostingBit(LatticeIndex* index, int row, int node) {
    index->postings_[index->Row(row) + 1 + static_cast<size_t>(node) / 64] ^=
        uint64_t{1} << (node % 64);
  }
  static void NarrowPostings(LatticeIndex* index) { --index->words_; }
};

namespace {

// Postings over more than one word, checked against the keys, including
// after erasures and revivals; a flipped bit and a bitset too narrow for
// the node count are flagged.
TEST(LatticeAuditTest, PostingsMatchTheKeysAndCorruptionIsFlagged) {
  LatticeIndex index;
  std::vector<Key> keys;
  for (uint32_t a = 0; a < 10; ++a) {
    for (uint32_t b = a + 1; b < 10; ++b) keys.push_back({a, b});
  }
  for (uint32_t a = 0; a < 30; ++a) keys.push_back({a});
  for (const auto& k : keys) index.Insert(k);
  ASSERT_EQ(index.num_nodes(), 75);
  EXPECT_EQ(index.posting_words(), 2);
  InvariantAuditor auditor;
  EXPECT_TRUE(auditor.AuditLattice(index).ok())
      << auditor.AuditLattice(index).Summary();
  index.Erase(Key{1, 2});
  index.Erase(Key{17});
  index.Insert(Key{1, 2});
  EXPECT_TRUE(auditor.AuditLattice(index).ok())
      << auditor.AuditLattice(index).Summary();

  LatticeIndex flipped = index;
  LatticeIndexTestPeer::FlipPostingBit(&flipped, /*row=*/3, /*node=*/70);
  AuditReport report = auditor.AuditLattice(flipped);
  EXPECT_NE(report.Summary().find("posting of atom 3 disagrees with the key "
                                  "of node 70"),
            std::string::npos)
      << report.Summary();

  LatticeIndex narrowed = index;
  LatticeIndexTestPeer::NarrowPostings(&narrowed);
  report = auditor.AuditLattice(narrowed);
  EXPECT_NE(report.Summary().find("postings are 1 words wide for 75 nodes"),
            std::string::npos)
      << report.Summary();
}

TEST(FilterTreeAuditTest, WorkloadTreePassesIncludingAfterRemovals) {
  Catalog catalog;
  tpch::BuildSchema(&catalog, 0.001);
  ViewCatalog views(&catalog);
  FilterTree tree;

  tpch::WorkloadGenerator gen(&catalog, 1234);
  std::vector<ViewId> ids;
  for (int i = 0; i < 50; ++i) {
    std::string error;
    ViewDefinition* v =
        views.AddView("v" + std::to_string(i), gen.GenerateView(), &error);
    ASSERT_NE(v, nullptr) << error;
    tree.AddView(views.description(v->id()));
    ids.push_back(v->id());
  }

  InvariantAuditor auditor;
  AuditReport report = auditor.AuditFilterTree(tree, views);
  EXPECT_TRUE(report.ok()) << report.Summary();

  // Remove every third view, then re-add one: liveness bookkeeping and
  // the view population must stay consistent.
  for (size_t i = 0; i < ids.size(); i += 3) {
    tree.RemoveView(views.description(ids[i]));
  }
  report = auditor.AuditFilterTree(tree, views);
  EXPECT_TRUE(report.ok()) << report.Summary();

  tree.AddView(views.description(ids[0]));
  report = auditor.AuditFilterTree(tree, views);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

// A removal erases every key whose subtree it empties, not just the
// leaf's, so probes stop walking emptied subtrees: with every view
// removed no key is live, no level is probed, and the audit (which flags
// a live key over a subtree holding no view) stays green throughout.
// Re-adding revives the keys.
TEST(FilterTreeAuditTest, RemovalErasesEveryKeyItEmpties) {
  Catalog catalog;
  tpch::BuildSchema(&catalog, 0.001);
  ViewCatalog views(&catalog);
  FilterTree tree;
  tpch::WorkloadGenerator gen(&catalog, 4321);
  std::vector<ViewId> ids;
  for (int i = 0; i < 40; ++i) {
    std::string error;
    ViewDefinition* v =
        views.AddView("v" + std::to_string(i), gen.GenerateView(), &error);
    ASSERT_NE(v, nullptr) << error;
    tree.AddView(views.description(v->id()));
    ids.push_back(v->id());
  }
  InvariantAuditor auditor;
  auto probe_own = [&](ViewId id, FilterSearchStats* stats) {
    QueryContext ctx;
    return tree.FindCandidates(DescribeQuery(catalog, views.view(id).query()),
                               ctx, stats);
  };
  for (ViewId id : ids) {
    tree.RemoveView(views.description(id));
    const AuditReport report = auditor.AuditFilterTree(tree, views);
    ASSERT_TRUE(report.ok()) << "after removing view " << id << ": "
                             << report.Summary();
  }
  EXPECT_EQ(tree.num_views(), 0);
  for (ViewId id : ids) {
    FilterSearchStats stats;
    EXPECT_TRUE(probe_own(id, &stats).empty());
    for (size_t l = 0; l < stats.level_probes.size(); ++l) {
      EXPECT_EQ(stats.level_probes[l], 0)
          << "view " << id << " level " << FilterLevelName(
                                                 static_cast<FilterLevel>(l));
    }
  }
  for (ViewId id : ids) tree.AddView(views.description(id));
  const AuditReport report = auditor.AuditFilterTree(tree, views);
  EXPECT_TRUE(report.ok()) << report.Summary();
  for (ViewId id : ids) {
    const std::vector<ViewId> found = probe_own(id, nullptr);
    EXPECT_NE(std::find(found.begin(), found.end(), id), found.end())
        << "view " << id;
  }
}

// Probes resolve every candidate id in the catalog, so a leaf record
// must name a registered view and agree with the catalog's description
// of it. A registration rolled back out of the catalog but left on a
// tree path is flagged — while it is the last id, and again once the
// next registration reuses its id.
TEST(FilterTreeAuditTest, LeafTheCatalogDoesNotHoldIsFlagged) {
  Catalog catalog;
  tpch::BuildSchema(&catalog, 0.001);
  ViewCatalog views(&catalog);
  FilterTree tree;
  tpch::WorkloadGenerator gen(&catalog, 77);
  auto add = [&](const std::string& name) {
    std::string error;
    ViewDefinition* v = views.AddView(name, gen.GenerateView(), &error);
    EXPECT_NE(v, nullptr) << error;
    tree.AddView(views.description(v->id()));
    return v->id();
  };
  add("a");
  add("b");
  const ViewId last = add("c");
  InvariantAuditor auditor;
  ASSERT_TRUE(auditor.AuditFilterTree(tree, views).ok());

  views.RemoveLastView(last);  // rolled back, but still indexed
  AuditReport report = auditor.AuditFilterTree(tree, views);
  EXPECT_NE(report.Summary().find("leaf holds unknown view id " +
                                  std::to_string(last)),
            std::string::npos)
      << report.Summary();

  EXPECT_EQ(add("d"), last);  // reuses the id
  report = auditor.AuditFilterTree(tree, views);
  EXPECT_NE(report.Summary().find("leaf record of view " +
                                  std::to_string(last) +
                                  " disagrees with its catalog description"),
            std::string::npos)
      << report.Summary();
  EXPECT_NE(report.Summary().find("a view id appears on more than one path"),
            std::string::npos)
      << report.Summary();
}

class MemoAuditTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MemoAuditTest, OptimizerMemoPassesOnWorkload) {
  const uint64_t seed = GetParam();
  Catalog catalog;
  tpch::BuildSchema(&catalog, 0.001);

  MatchingService service(&catalog);
  tpch::WorkloadGenerator view_gen(&catalog, seed * 13 + 3);
  for (int i = 0; i < 25; ++i) {
    std::string error;
    ASSERT_NE(service.AddView("v" + std::to_string(i),
                              view_gen.GenerateView(), &error),
              nullptr)
        << error;
  }

  OptimizerOptions options;
  options.audit_memo = true;
  Optimizer optimizer(&catalog, &service, options);

  tpch::WorkloadGenerator query_gen(&catalog, seed * 7 + 11);
  for (int j = 0; j < 25; ++j) {
    SpjgQuery query = query_gen.GenerateQuery();
    QueryContext ctx;
    OptimizationResult result = optimizer.Optimize(query, ctx);
    EXPECT_TRUE(result.memo_audit.ok())
        << "memo violations for query:\n"
        << query.ToSql(catalog) << "\n"
        << result.memo_audit.Summary();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemoAuditTest, ::testing::Values(1, 2, 3));

TEST(MemoAuditTest, CorruptedMemosAreFlagged) {
  InvariantAuditor auditor;
  const uint32_t full = 0b111;
  const int base = 100000;

  auto expr = [](MemoExprRecord::Kind kind, int32_t table_ref, int c0,
                 int c1) {
    MemoExprRecord e;
    e.kind = kind;
    e.table_ref = table_ref;
    e.child0 = c0;
    e.child1 = c1;
    return e;
  };

  // A well-formed three-table memo: joins over single-table GETs.
  std::vector<MemoGroupRecord> good;
  good.push_back({0b001, -1, {expr(MemoExprRecord::Kind::kGet, 0, -1, -1)}});
  good.push_back({0b010, -1, {expr(MemoExprRecord::Kind::kGet, 1, -1, -1)}});
  good.push_back({0b100, -1, {expr(MemoExprRecord::Kind::kGet, 2, -1, -1)}});
  good.push_back({0b011, -1, {expr(MemoExprRecord::Kind::kJoin, -1, 0, 1)}});
  good.push_back({0b111, -1, {expr(MemoExprRecord::Kind::kJoin, -1, 3, 2)}});
  EXPECT_TRUE(auditor.AuditMemo(good, full, 0, base).ok());

  // Duplicate (mask, spec) key.
  auto dup = good;
  dup.push_back({0b011, -1, {expr(MemoExprRecord::Kind::kJoin, -1, 0, 1)}});
  EXPECT_FALSE(auditor.AuditMemo(dup, full, 0, base).ok());

  // Join children overlap / fail to partition the mask.
  auto overlap = good;
  overlap[4].exprs[0].child0 = 3;  // {0,1}
  overlap[4].exprs[0].child1 = 1;  // {1} — misses table 2, overlaps table 1
  EXPECT_FALSE(auditor.AuditMemo(overlap, full, 0, base).ok());

  // GET names the wrong table for its mask.
  auto wrong_get = good;
  wrong_get[2].exprs[0].table_ref = 1;
  EXPECT_FALSE(auditor.AuditMemo(wrong_get, full, 0, base).ok());

  // Mask escaping the query's table set.
  auto escaped = good;
  escaped[4].mask = 0b1111;
  EXPECT_FALSE(auditor.AuditMemo(escaped, full, 0, base).ok());

  // AGGREGATE expression inside an SPJ group.
  auto agg_in_spj = good;
  agg_in_spj[4].exprs.push_back(
      expr(MemoExprRecord::Kind::kAggregate, -1, 4, -1));
  EXPECT_FALSE(auditor.AuditMemo(agg_in_spj, full, 0, base).ok());

  // Aggregation-spec id outside every declared range.
  auto bad_spec = good;
  bad_spec.push_back(
      {0b111, 7, {expr(MemoExprRecord::Kind::kAggregate, -1, 4, -1)}});
  EXPECT_FALSE(auditor.AuditMemo(bad_spec, full, /*num_agg_specs=*/1, base)
                   .ok());

  // Empty group.
  auto empty = good;
  empty[0].exprs.clear();
  EXPECT_FALSE(auditor.AuditMemo(empty, full, 0, base).ok());
}

}  // namespace
}  // namespace mvopt
