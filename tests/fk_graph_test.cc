#include "rewrite/fk_graph.h"

#include <gtest/gtest.h>

#include "expr/classify.h"
#include "query/spjg.h"
#include "tpch/schema.h"

namespace mvopt {
namespace {

class FkGraphTest : public ::testing::Test {
 protected:
  FkGraphTest() : schema_(tpch::BuildSchema(&catalog_)) {}

  // Builds graph machinery for an SPJG query.
  struct Built {
    SpjgQuery query;
    EquivalenceClasses ec;
    FkJoinGraph graph;
  };

  Built BuildFor(SpjgBuilder& b, const FkGraphOptions& opts = {}) {
    Built out{b.Build(), {}, {}};
    out.ec = EquivalenceClasses(catalog_, out.query.tables);
    out.ec.AddEqualities(ClassifyConjuncts(out.query.conjuncts).equalities);
    out.graph = FkJoinGraph::Build(catalog_, out.query.tables, out.ec, opts);
    return out;
  }

  static ExprPtr Eq(ExprPtr a, ExprPtr b) {
    return Expr::MakeCompare(CompareOp::kEq, std::move(a), std::move(b));
  }

  Catalog catalog_;
  tpch::Schema schema_;
};

TEST_F(FkGraphTest, Example3GraphShape) {
  SpjgBuilder b(&catalog_);
  int l = b.AddTable("lineitem");
  int o = b.AddTable("orders");
  int c = b.AddTable("customer");
  b.Where(Eq(b.Col(l, "l_orderkey"), b.Col(o, "o_orderkey")));
  b.Where(Eq(b.Col(o, "o_custkey"), b.Col(c, "c_custkey")));
  b.Output(b.Col(l, "l_orderkey"));
  Built built = BuildFor(b);

  // Edges: lineitem->orders and orders->customer.
  ASSERT_EQ(built.graph.edges().size(), 2u);
  auto keep_only = [&](int node) { return uint64_t{1} << node; };
  auto edges = built.graph.EliminateAllExcept(keep_only(l));
  ASSERT_TRUE(edges.has_value());
  ASSERT_EQ(edges->size(), 2u);
  // Customer (leaf) is deleted first, then orders.
  EXPECT_EQ((*edges)[0].to_ref, c);
  EXPECT_EQ((*edges)[1].to_ref, o);
}

TEST_F(FkGraphTest, NoEdgeWithoutEquijoin) {
  SpjgBuilder b(&catalog_);
  b.AddTable("lineitem");
  b.AddTable("orders");
  int l = 0;
  b.Output(b.Col(l, "l_orderkey"));
  Built built = BuildFor(b);
  EXPECT_TRUE(built.graph.edges().empty());
  EXPECT_FALSE(built.graph.EliminateAllExcept(1).has_value());
}

TEST_F(FkGraphTest, CompositeForeignKeyNeedsAllColumns) {
  // lineitem -> partsupp FK is (l_partkey, l_suppkey). Equating only
  // l_partkey is not enough.
  SpjgBuilder b(&catalog_);
  int l = b.AddTable("lineitem");
  int ps = b.AddTable("partsupp");
  b.Where(Eq(b.Col(l, "l_partkey"), b.Col(ps, "ps_partkey")));
  b.Output(b.Col(l, "l_orderkey"));
  Built partial = BuildFor(b);
  EXPECT_TRUE(partial.graph.edges().empty());

  SpjgBuilder b2(&catalog_);
  int l2 = b2.AddTable("lineitem");
  int ps2 = b2.AddTable("partsupp");
  b2.Where(Eq(b2.Col(l2, "l_partkey"), b2.Col(ps2, "ps_partkey")));
  b2.Where(Eq(b2.Col(l2, "l_suppkey"), b2.Col(ps2, "ps_suppkey")));
  b2.Output(b2.Col(l2, "l_orderkey"));
  Built full = BuildFor(b2);
  ASSERT_EQ(full.graph.edges().size(), 1u);
  EXPECT_EQ(full.graph.edges()[0].from_ref, l2);
  EXPECT_EQ(full.graph.edges()[0].to_ref, ps2);
}

TEST_F(FkGraphTest, TransitiveEquijoinViaEquivalenceClasses) {
  // The FK columns are equated transitively: l_partkey = ps_partkey and
  // ps_partkey = p_partkey gives the lineitem->part edge too.
  SpjgBuilder b(&catalog_);
  int l = b.AddTable("lineitem");
  int p = b.AddTable("part");
  int ps = b.AddTable("partsupp");
  b.Where(Eq(b.Col(l, "l_partkey"), b.Col(ps, "ps_partkey")));
  b.Where(Eq(b.Col(ps, "ps_partkey"), b.Col(p, "p_partkey")));
  b.Where(Eq(b.Col(l, "l_suppkey"), b.Col(ps, "ps_suppkey")));
  b.Output(b.Col(l, "l_orderkey"));
  Built built = BuildFor(b);
  bool found_l_to_p = false;
  for (const auto& e : built.graph.edges()) {
    if (e.from_ref == l && e.to_ref == p) found_l_to_p = true;
  }
  EXPECT_TRUE(found_l_to_p);
}

TEST_F(FkGraphTest, EliminationRespectsKeepMask) {
  SpjgBuilder b(&catalog_);
  int l = b.AddTable("lineitem");
  int o = b.AddTable("orders");
  int c = b.AddTable("customer");
  b.Where(Eq(b.Col(l, "l_orderkey"), b.Col(o, "o_orderkey")));
  b.Where(Eq(b.Col(o, "o_custkey"), b.Col(c, "c_custkey")));
  b.Output(b.Col(l, "l_orderkey"));
  Built built = BuildFor(b);
  // Keep lineitem and orders: only customer is eliminated.
  auto edges = built.graph.EliminateAllExcept((1ULL << l) | (1ULL << o));
  ASSERT_TRUE(edges.has_value());
  EXPECT_EQ(edges->size(), 1u);
  EXPECT_EQ((*edges)[0].to_ref, c);
}

TEST_F(FkGraphTest, HubComputation) {
  SpjgBuilder b(&catalog_);
  int l = b.AddTable("lineitem");
  int o = b.AddTable("orders");
  int c = b.AddTable("customer");
  b.Where(Eq(b.Col(l, "l_orderkey"), b.Col(o, "o_orderkey")));
  b.Where(Eq(b.Col(o, "o_custkey"), b.Col(c, "c_custkey")));
  b.Output(b.Col(l, "l_orderkey"));
  Built built = BuildFor(b);
  // Unprotected: hub reduces to lineitem alone.
  EXPECT_EQ(built.graph.ComputeHub(0), uint64_t{1} << l);
  // Protecting customer keeps customer and (transitively) orders.
  uint64_t hub = built.graph.ComputeHub(uint64_t{1} << c);
  EXPECT_EQ(hub, (uint64_t{1} << l) | (uint64_t{1} << o) | (uint64_t{1} << c));
}

TEST_F(FkGraphTest, NodeWithTwoIncomingEdgesNotEliminated) {
  // Both lineitem and partsupp reference supplier; supplier then has two
  // incoming edges and the paper's rule (exactly one incoming) blocks
  // elimination until one side goes first — but neither lineitem nor
  // partsupp is eliminable here, so supplier stays.
  SpjgBuilder b(&catalog_);
  int l = b.AddTable("lineitem");
  int ps = b.AddTable("partsupp");
  int s = b.AddTable("supplier");
  b.Where(Eq(b.Col(l, "l_suppkey"), b.Col(s, "s_suppkey")));
  b.Where(Eq(b.Col(ps, "ps_suppkey"), b.Col(s, "s_suppkey")));
  b.Output(b.Col(l, "l_orderkey"));
  Built built = BuildFor(b);
  auto edges =
      built.graph.EliminateAllExcept((uint64_t{1} << l) | (uint64_t{1} << ps));
  EXPECT_FALSE(edges.has_value());
}

}  // namespace
}  // namespace mvopt
