#include "optimizer/physical.h"

#include <gtest/gtest.h>

#include "index/matching_service.h"
#include "optimizer/optimizer.h"
#include "tpch/schema.h"

namespace mvopt {
namespace {

class PlanTest : public ::testing::Test {
 protected:
  PlanTest() : schema_(tpch::BuildSchema(&catalog_, 0.01)) {}

  Catalog catalog_;
  tpch::Schema schema_;
};

TEST_F(PlanTest, ToStringRendersTreeShape) {
  SpjgBuilder b(&catalog_);
  int l = b.AddTable("lineitem");
  int o = b.AddTable("orders");
  b.Where(Expr::MakeCompare(CompareOp::kEq, b.Col(l, "l_orderkey"),
                            b.Col(o, "o_orderkey")));
  b.Where(Expr::MakeCompare(CompareOp::kLt, b.Col(o, "o_orderkey"),
                            Expr::MakeLiteral(Value::Int64(100))));
  b.Output(b.Col(l, "l_orderkey"));
  Optimizer optimizer(&catalog_, nullptr);
  QueryContext ctx;
  OptimizationResult r = optimizer.Optimize(b.Build(), ctx);
  ASSERT_NE(r.plan, nullptr);
  std::string s = r.plan->ToString(catalog_);
  EXPECT_NE(s.find("Project"), std::string::npos);
  EXPECT_NE(s.find("HashJoin"), std::string::npos);
  EXPECT_NE(s.find("lineitem"), std::string::npos);
  EXPECT_NE(s.find("rows="), std::string::npos);
  // Children indented below parents.
  EXPECT_LT(s.find("Project"), s.find("HashJoin"));
}

TEST_F(PlanTest, UsesViewDetectsViewScansAtAnyDepth) {
  auto leaf = std::make_shared<PhysPlan>();
  leaf->kind = PhysKind::kViewScan;
  auto mid = std::make_shared<PhysPlan>();
  mid->kind = PhysKind::kHashJoin;
  mid->children = {leaf, std::make_shared<PhysPlan>()};
  auto root = std::make_shared<PhysPlan>();
  root->kind = PhysKind::kHashAggregate;
  root->children = {mid};
  EXPECT_TRUE(root->UsesView());
  auto plain = std::make_shared<PhysPlan>();
  plain->kind = PhysKind::kTableScan;
  EXPECT_FALSE(plain->UsesView());
}

TEST_F(PlanTest, MetricsAccumulateAcrossGroups) {
  MatchingService service(&catalog_);
  SpjgBuilder vb(&catalog_);
  int l = vb.AddTable("lineitem");
  vb.Output(vb.Col(l, "l_orderkey"));
  vb.Output(vb.Col(l, "l_partkey"));
  std::string error;
  ASSERT_NE(service.AddView("v", vb.Build(), &error), nullptr) << error;

  SpjgBuilder qb(&catalog_);
  int ql = qb.AddTable("lineitem");
  int qo = qb.AddTable("orders");
  qb.Where(Expr::MakeCompare(CompareOp::kEq, qb.Col(ql, "l_orderkey"),
                             qb.Col(qo, "o_orderkey")));
  qb.Output(qb.Col(ql, "l_partkey"));
  Optimizer optimizer(&catalog_, &service);
  QueryContext ctx;
  OptimizationResult r = optimizer.Optimize(qb.Build(), ctx);
  // Three SPJG groups: {lineitem}, {orders}, {lineitem, orders}.
  EXPECT_EQ(r.metrics.view_matching_invocations, 3);
  EXPECT_GE(r.metrics.groups_created, 3);
  EXPECT_GT(r.metrics.expressions_generated, 0);
  // The lineitem leaf group matched the view.
  EXPECT_EQ(r.metrics.substitutes_produced, 1);
  // Service-level stats agree.
  EXPECT_EQ(service.stats().invocations, 3);
  EXPECT_EQ(service.stats().substitutes, 1);
}

TEST_F(PlanTest, RejectReasonCountersFillIn) {
  MatchingService service(&catalog_);
  std::string error;
  // A view that passes the filter but fails range subsumption.
  SpjgBuilder vb(&catalog_);
  int l = vb.AddTable("lineitem");
  vb.Where(Expr::MakeCompare(CompareOp::kGt, vb.Col(l, "l_partkey"),
                             Expr::MakeLiteral(Value::Int64(1000))));
  vb.Output(vb.Col(l, "l_orderkey"));
  vb.Output(vb.Col(l, "l_partkey"));
  ASSERT_NE(service.AddView("narrow", vb.Build(), &error), nullptr);

  SpjgBuilder qb(&catalog_);
  int ql = qb.AddTable("lineitem");
  qb.Where(Expr::MakeCompare(CompareOp::kGt, qb.Col(ql, "l_partkey"),
                             Expr::MakeLiteral(Value::Int64(500))));
  qb.Output(qb.Col(ql, "l_orderkey"));
  QueryContext ctx;
  auto subs = service.FindSubstitutes(qb.Build(), ctx);
  EXPECT_TRUE(subs.empty());
  EXPECT_EQ(service.stats().rejects[static_cast<size_t>(
                RejectReason::kRangeSubsumption)],
            1);
}

TEST_F(PlanTest, UnionSubstituteRequiresCandidates) {
  MatchingService service(&catalog_);
  SpjgBuilder qb(&catalog_);
  int l = qb.AddTable("lineitem");
  qb.Output(qb.Col(l, "l_orderkey"));
  QueryContext ctx;
  EXPECT_FALSE(service.FindUnionSubstitute(qb.Build(), ctx).has_value());
}

}  // namespace
}  // namespace mvopt
