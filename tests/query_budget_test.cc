#include "common/query_budget.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "index/matching_service.h"
#include "optimizer/optimizer.h"
#include "tpch/schema.h"
#include "tpch/workload.h"

namespace mvopt {
namespace {

using std::chrono::microseconds;
using std::chrono::milliseconds;

// ---------------------------------------------------------------------
// Budget object semantics.
// ---------------------------------------------------------------------

TEST(QueryBudgetTest, DefaultBudgetNeverExhausts) {
  QueryBudget budget;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(budget.TickDeadline());
    EXPECT_FALSE(budget.ConsumeCandidate());
    EXPECT_FALSE(budget.ConsumeMemoGroup());
    EXPECT_FALSE(budget.ConsumeMemoExpr());
  }
  EXPECT_EQ(budget.reason(), DegradationReason::kNone);
}

TEST(QueryBudgetTest, ExpiredDeadlineTripsOnFirstTick) {
  QueryBudget budget;
  budget.set_deadline(QueryBudget::Clock::now() - milliseconds(1));
  EXPECT_TRUE(budget.TickDeadline());
  EXPECT_EQ(budget.reason(), DegradationReason::kDeadlineExceeded);
}

// Regression: set_deadline used to leave the amortized clock-check
// stride wherever the previous ticks left it, so a deadline installed
// mid-stride could coast for up to kDeadlineCheckStride-1 ticks before
// the next clock read noticed it. It must re-arm the stride so the very
// next tick reads the clock — worst-case overshoot is therefore zero
// ticks for a deadline set mid-flight, bounded by the stride otherwise.
TEST(QueryBudgetTest, DeadlineSetMidStrideTripsOnTheNextTick) {
  QueryBudget budget;
  budget.set_deadline(QueryBudget::Clock::now() + std::chrono::hours(1));
  // Advance partway into a stride (tick 0 read the clock; 1..4 do not).
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(budget.TickDeadline());
  // Re-setting to an already-expired deadline must trip immediately,
  // not after the stride's remaining ticks elapse.
  budget.set_deadline(QueryBudget::Clock::now() - milliseconds(1));
  EXPECT_TRUE(budget.TickDeadline());
  EXPECT_EQ(budget.reason(), DegradationReason::kDeadlineExceeded);
}

TEST(QueryBudgetTest, ResetForQueryReArmsTheDeadlineStride) {
  QueryBudget budget;
  budget.set_deadline(QueryBudget::Clock::now() + std::chrono::hours(1));
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(budget.TickDeadline());
  // A new query starts on the same budget after its deadline passed
  // (deadlines are absolute and survive ResetForQuery): the first tick
  // of the new query must read the clock and trip at once.
  budget.ResetForQuery();
  budget.set_deadline(QueryBudget::Clock::now() - milliseconds(1));
  budget.ResetForQuery();
  EXPECT_TRUE(budget.TickDeadline());
  EXPECT_EQ(budget.reason(), DegradationReason::kDeadlineExceeded);
}

// Bounds the worst-case overshoot of the amortized deadline check: once
// the deadline has passed, detection takes at most kDeadlineCheckStride
// ticks (the stride's clock read lands within every window of that
// many calls).
TEST(QueryBudgetTest, DeadlineOvershootIsBoundedByTheStride) {
  QueryBudget budget;
  budget.set_deadline(QueryBudget::Clock::now() + milliseconds(5));
  // Consume the stride's clock-reading tick while the deadline is still
  // in the future, so detection genuinely waits for the next stride
  // boundary rather than the re-armed first tick.
  EXPECT_FALSE(budget.TickDeadline());
  while (QueryBudget::Clock::now() < budget.deadline() + milliseconds(1)) {
    // burn real time past the deadline without ticking
  }
  int ticks_to_trip = 0;
  while (!budget.TickDeadline()) {
    ASSERT_LE(++ticks_to_trip,
              static_cast<int>(QueryBudget::kDeadlineCheckStride))
        << "expired deadline undetected for more than one full stride";
  }
  EXPECT_EQ(budget.reason(), DegradationReason::kDeadlineExceeded);
}

TEST(QueryBudgetTest, ExhaustionIsStickyAndKeepsFirstReason) {
  QueryBudget budget;
  budget.set_candidate_cap(1);
  EXPECT_FALSE(budget.ConsumeCandidate());
  EXPECT_TRUE(budget.ConsumeCandidate());
  EXPECT_EQ(budget.reason(), DegradationReason::kCandidateCapReached);
  // Later trips of *other* limits must not overwrite the first reason.
  budget.set_memo_expr_cap(0);
  EXPECT_TRUE(budget.ConsumeMemoExpr());
  EXPECT_TRUE(budget.TickDeadline());
  EXPECT_EQ(budget.reason(), DegradationReason::kCandidateCapReached);
  EXPECT_EQ(budget.candidates_used(), 2);
}

TEST(QueryBudgetTest, ReasonNamesCoverTheEnum) {
  for (int i = 0; i < kNumDegradationReasons; ++i) {
    EXPECT_STRNE(DegradationReasonName(static_cast<DegradationReason>(i)),
                 "?");
  }
}

// ---------------------------------------------------------------------
// End-to-end degradation through the optimizer.
// ---------------------------------------------------------------------

class BudgetOptimizerTest : public ::testing::Test {
 protected:
  BudgetOptimizerTest() : schema_(tpch::BuildSchema(&catalog_, 0.5)) {}

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

  SpjgQuery ThreeTableQuery() {
    SpjgBuilder b(&catalog_);
    int l = b.AddTable("lineitem");
    int o = b.AddTable("orders");
    int c = b.AddTable("customer");
    b.Where(Expr::MakeCompare(CompareOp::kEq, b.Col(l, "l_orderkey"),
                              b.Col(o, "o_orderkey")));
    b.Where(Expr::MakeCompare(CompareOp::kEq, b.Col(o, "o_custkey"),
                              b.Col(c, "c_custkey")));
    b.Output(b.Col(c, "c_name"));
    b.Output(b.Col(l, "l_partkey"));
    return b.Build();
  }

  Catalog catalog_;
  tpch::Schema schema_;
};

TEST_F(BudgetOptimizerTest, UnlimitedBudgetPlansAreByteIdentical) {
  MatchingService service(&catalog_);
  AddWorkloadViews(&service, 60, 11);
  Optimizer optimizer(&catalog_, &service);
  for (const SpjgQuery& q : MakeQueries(25, 999)) {
    QueryContext plain_ctx;
    OptimizationResult plain = optimizer.Optimize(q, plain_ctx);
    QueryContext governed_ctx;
    governed_ctx.EmplaceBudget();  // present but unlimited
    OptimizationResult governed = optimizer.Optimize(q, governed_ctx);
    ASSERT_NE(plain.plan, nullptr);
    ASSERT_NE(governed.plan, nullptr);
    EXPECT_EQ(governed.plan->ToString(catalog_),
              plain.plan->ToString(catalog_));
    EXPECT_EQ(governed.degradation, DegradationReason::kNone);
    EXPECT_EQ(plain.degradation, DegradationReason::kNone);
  }
}

TEST_F(BudgetOptimizerTest, MillisecondDeadlineOnLargeCatalogNeverHangs) {
  // The acceptance scenario: 1000 views, ~a tenth of a millisecond of
  // wall clock. Every optimization must come back with a valid plan, and
  // the deadline must actually trip on a decent fraction of the workload.
  // (The budget is deliberately far below one optimization's cost; a
  // whole-millisecond deadline stopped tripping reliably once the
  // compiled match tier landed.)
  MatchingService service(&catalog_);
  AddWorkloadViews(&service, 1000, 21);
  Optimizer optimizer(&catalog_, &service);
  int degraded = 0;
  for (const SpjgQuery& q : MakeQueries(20, 555)) {
    QueryContext ctx;
    ctx.EmplaceBudget().set_deadline_after(microseconds(100));
    OptimizationResult r = optimizer.Optimize(q, ctx);
    ASSERT_NE(r.plan, nullptr);
    EXPECT_FALSE(r.plan->ToString(catalog_).empty());
    if (r.degradation != DegradationReason::kNone) {
      EXPECT_EQ(r.degradation, DegradationReason::kDeadlineExceeded);
      ++degraded;
    }
  }
  EXPECT_GT(degraded, 0);
}

TEST_F(BudgetOptimizerTest, AlreadyExpiredDeadlineStillYieldsBasePlan) {
  MatchingService service(&catalog_);
  AddWorkloadViews(&service, 100, 31);
  Optimizer optimizer(&catalog_, &service);
  QueryContext ctx;
  ctx.EmplaceBudget().set_deadline(QueryBudget::Clock::now() -
                                   milliseconds(5));
  OptimizationResult r = optimizer.Optimize(ThreeTableQuery(), ctx);
  ASSERT_NE(r.plan, nullptr);
  EXPECT_EQ(r.degradation, DegradationReason::kDeadlineExceeded);
  // The degraded plan is still a complete, printable plan tree.
  std::string s = r.plan->ToString(catalog_);
  EXPECT_NE(s.find("lineitem"), std::string::npos);
}

TEST_F(BudgetOptimizerTest, CandidateCapTruncatesTheFilterProbe) {
  MatchingService service(&catalog_);
  std::string error;
  SpjgBuilder vb(&catalog_);
  int l = vb.AddTable("lineitem");
  vb.Output(vb.Col(l, "l_orderkey"));
  vb.Output(vb.Col(l, "l_partkey"));
  SpjgQuery def = vb.Build();
  ASSERT_NE(service.AddView("v", def, &error), nullptr) << error;
  QueryContext ctx;
  QueryBudget& budget = ctx.EmplaceBudget();
  budget.set_candidate_cap(0);
  EXPECT_TRUE(service.FindSubstitutes(def, ctx).empty());
  EXPECT_EQ(budget.reason(), DegradationReason::kCandidateCapReached);
  // Without the cap the same probe matches.
  QueryContext uncapped;
  EXPECT_EQ(service.FindSubstitutes(def, uncapped).size(), 1u);
}

TEST_F(BudgetOptimizerTest, MemoGroupCapDegradesButCompletesThePlan) {
  Optimizer optimizer(&catalog_, nullptr);
  QueryContext ctx;
  QueryBudget& budget = ctx.EmplaceBudget();
  budget.set_memo_group_cap(1);
  OptimizationResult r = optimizer.Optimize(ThreeTableQuery(), ctx);
  ASSERT_NE(r.plan, nullptr);
  EXPECT_EQ(r.degradation, DegradationReason::kMemoGroupCapReached);
  EXPECT_GT(budget.memo_groups_used(), 0);
}

TEST_F(BudgetOptimizerTest, MemoExprCapDegradesButCompletesThePlan) {
  Optimizer optimizer(&catalog_, nullptr);
  QueryContext ctx;
  ctx.EmplaceBudget().set_memo_expr_cap(0);
  OptimizationResult r = optimizer.Optimize(ThreeTableQuery(), ctx);
  ASSERT_NE(r.plan, nullptr);
  EXPECT_EQ(r.degradation, DegradationReason::kMemoExprCapReached);
}

TEST_F(BudgetOptimizerTest, BudgetTruncationSurfacesInMatchingStats) {
  MatchingService service(&catalog_);
  AddWorkloadViews(&service, 200, 41);
  QueryContext ctx;
  ctx.EmplaceBudget().set_deadline(QueryBudget::Clock::now() -
                                   milliseconds(1));
  for (const SpjgQuery& q : MakeQueries(5, 777)) {
    (void)service.FindSubstitutes(q, ctx);
  }
  // An expired deadline stops candidate enumeration and full matching.
  EXPECT_EQ(service.stats().full_tests, 0);
}

TEST_F(BudgetOptimizerTest, ReusedBudgetDoesNotCarryDegradationForward) {
  // Regression: a sticky degradation reason (or partially-consumed
  // counters) from one Optimize() must not leak into the next when the
  // caller reuses one context, and so its one budget, across queries.
  MatchingService service(&catalog_);
  AddWorkloadViews(&service, 60, 11);
  Optimizer optimizer(&catalog_, &service);
  SpjgQuery q = ThreeTableQuery();

  QueryContext ctx;
  QueryBudget& budget = ctx.EmplaceBudget();
  budget.set_memo_expr_cap(0);
  OptimizationResult capped = optimizer.Optimize(q, ctx);
  ASSERT_NE(capped.plan, nullptr);
  EXPECT_EQ(capped.degradation, DegradationReason::kMemoExprCapReached);

  // Same context, cap lifted: the second optimization must start from a
  // clean slate instead of reporting (or acting on) the stale
  // exhaustion.
  budget.set_memo_expr_cap(QueryBudget::kUnlimited);
  OptimizationResult clean = optimizer.Optimize(q, ctx);
  ASSERT_NE(clean.plan, nullptr);
  EXPECT_EQ(clean.degradation, DegradationReason::kNone);
  EXPECT_FALSE(budget.exhausted());

  // And with no change at all, each run re-trips the cap independently
  // rather than compounding counters across runs.
  budget.set_memo_expr_cap(0);
  for (int i = 0; i < 3; ++i) {
    OptimizationResult r = optimizer.Optimize(q, ctx);
    ASSERT_NE(r.plan, nullptr);
    EXPECT_EQ(r.degradation, DegradationReason::kMemoExprCapReached);
  }
}

TEST_F(BudgetOptimizerTest, ReusedContextDoesNotCarryAnAdvisoryForward) {
  // Without a budget the context keeps advisories itself; a reused
  // context must clear them per query like a budget's. The first query's
  // only candidate is stale (advisory kStaleViewsOnly); the second has no
  // stale candidate in any memo group, so it must report kNone.
  MatchingService service(&catalog_);
  TableEpochClock epochs;
  service.set_epoch_clock(&epochs);
  SpjgBuilder vb(&catalog_);
  int l = vb.AddTable("lineitem");
  vb.Output(vb.Col(l, "l_orderkey"));
  vb.Output(vb.Col(l, "l_partkey"));
  SpjgQuery lineitem_query = vb.Build();
  std::string error;
  ASSERT_NE(service.AddView("v", lineitem_query, &error), nullptr) << error;
  epochs.Advance(schema_.lineitem);  // the view now lags by one epoch

  SpjgBuilder qb(&catalog_);
  int o = qb.AddTable("orders");
  qb.Output(qb.Col(o, "o_orderkey"));
  SpjgQuery orders_query = qb.Build();

  Optimizer optimizer(&catalog_, &service);
  QueryContext ctx;  // no budget
  OptimizationResult stale = optimizer.Optimize(lineitem_query, ctx);
  ASSERT_NE(stale.plan, nullptr);
  EXPECT_EQ(stale.degradation, DegradationReason::kStaleViewsOnly);
  OptimizationResult fresh = optimizer.Optimize(orders_query, ctx);
  ASSERT_NE(fresh.plan, nullptr);
  EXPECT_EQ(fresh.degradation, DegradationReason::kNone);
}

TEST(QueryBudgetTest, ResetForQueryClearsOutcomeButKeepsLimits) {
  QueryBudget budget;
  budget.set_memo_group_cap(1);
  budget.ConsumeMemoGroup();
  budget.ConsumeMemoGroup();
  EXPECT_TRUE(budget.exhausted());
  budget.NoteDegradation(DegradationReason::kStaleViewsOnly);
  budget.ResetForQuery();
  EXPECT_FALSE(budget.exhausted());
  EXPECT_EQ(budget.reason(), DegradationReason::kNone);
  EXPECT_EQ(budget.memo_groups_used(), 0);
  // The cap itself survives: it re-trips on the next query's usage.
  budget.ConsumeMemoGroup();
  EXPECT_TRUE(budget.ConsumeMemoGroup());
  EXPECT_EQ(budget.reason(), DegradationReason::kMemoGroupCapReached);
}

TEST(QueryBudgetTest, AdvisoryDegradationReportsWithoutExhausting) {
  QueryBudget budget;
  budget.NoteDegradation(DegradationReason::kStaleViewsOnly);
  EXPECT_FALSE(budget.exhausted());
  EXPECT_EQ(budget.reason(), DegradationReason::kStaleViewsOnly);
  // A hard limit outranks the advisory.
  budget.set_candidate_cap(0);
  budget.ConsumeCandidate();
  EXPECT_EQ(budget.reason(), DegradationReason::kCandidateCapReached);
}

}  // namespace
}  // namespace mvopt
