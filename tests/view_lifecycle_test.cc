// View-lifecycle tests: the FRESH/STALE/QUARANTINED/DISABLED state
// machine, epoch-based staleness rejection and bounded tolerance,
// the content-checksum circuit breaker, exponential-backoff
// revalidation with filter-tree re-admission, and the engine-side
// epoch/checksum wiring through ViewMaintainer.

#include "rewrite/view_lifecycle.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/epoch.h"
#include "common/failpoint.h"
#include "engine/maintenance.h"
#include "index/matching_service.h"
#include "tpch/datagen.h"
#include "tpch/schema.h"
#include "verify/invariant_auditor.h"

namespace mvopt {
namespace {

// --- registry unit tests --------------------------------------------------

TEST(ViewLifecycleRegistryTest, GaugesTrackEveryTransitionPath) {
  // Regression for the gauge-drift bug: the quarantined/disabled gauges
  // must equal the authoritative per-entry counts after any sequence of
  // transitions, including self-transitions (MarkFresh on a FRESH view
  // used to double-count) and Restore over an existing non-FRESH entry.
  ViewLifecycleRegistry reg;
  reg.EnsureSize(4);

  reg.MarkFresh(0, 1);  // FRESH -> FRESH: must not disturb any gauge
  reg.MarkFresh(0, 2);
  EXPECT_EQ(reg.num_sidelined(), 0);
  EXPECT_EQ(reg.CountState(ViewState::kFresh), 4);

  reg.ReportChecksumMismatch(1);  // FRESH -> DISABLED
  reg.ReportChecksumMismatch(1);  // DISABLED -> DISABLED: no drift
  EXPECT_EQ(reg.num_disabled(), 1);
  EXPECT_EQ(reg.num_disabled(), reg.CountState(ViewState::kDisabled));

  ViewLifecycleRegistry::Snapshot snap;
  snap.state = ViewState::kQuarantined;
  reg.Restore(1, snap);  // DISABLED -> QUARANTINED via Restore
  EXPECT_EQ(reg.num_disabled(), 0);
  EXPECT_EQ(reg.num_quarantined(), 1);
  reg.Restore(1, snap);  // QUARANTINED -> QUARANTINED: no drift
  EXPECT_EQ(reg.num_quarantined(), 1);

  reg.Readmit(1, 7);
  EXPECT_EQ(reg.num_sidelined(), 0);
  EXPECT_TRUE(reg.AuditCounters());  // gauges agree with the state map
}

TEST(ViewLifecycleRegistryTest, AuditCountersAgreesWithAuthoritativeCounts) {
  ViewLifecycleRegistry reg;
  reg.EnsureSize(3);
  reg.ReportChecksumMismatch(0);
  reg.MarkStale(1);
  EXPECT_TRUE(reg.AuditCounters());
  EXPECT_EQ(reg.CountState(ViewState::kDisabled), 1);
  EXPECT_EQ(reg.CountState(ViewState::kStale), 1);
  EXPECT_EQ(reg.CountState(ViewState::kFresh), 1);
  // After a resync the gauges match the authoritative counts again and a
  // second audit is clean.
  EXPECT_EQ(reg.num_disabled(), reg.CountState(ViewState::kDisabled));
  EXPECT_TRUE(reg.AuditCounters());
}

TEST(ViewLifecycleRegistryTest, TransitionCountersCountDestinations) {
  MetricsRegistry metrics;
  std::array<Counter*, kNumViewStates> to_state{};
  for (int i = 0; i < kNumViewStates; ++i) {
    to_state[i] = metrics.FindOrCreateCounter(
        "mvopt_lifecycle_transitions_total", "By destination state",
        {{"to", ViewStateName(static_cast<ViewState>(i))}});
  }
  ViewLifecycleRegistry reg;
  reg.set_transition_counters(to_state);
  reg.EnsureSize(2);

  reg.MarkStale(0);             // -> stale
  reg.MarkFresh(0, 1);          // -> fresh
  reg.MarkFresh(0, 2);          // fresh -> fresh: not a transition
  reg.ReportChecksumMismatch(0);  // -> disabled
  reg.Readmit(0, 3);            // -> fresh
  reg.ReportVerifyFailure(1, 1, 0);  // -> quarantined

  auto count = [&](ViewState s) {
    return metrics
        .CounterValue("mvopt_lifecycle_transitions_total",
                      {{"to", ViewStateName(s)}})
        .value_or(-1);
  };
  EXPECT_EQ(count(ViewState::kStale), 1);
  EXPECT_EQ(count(ViewState::kFresh), 2);
  EXPECT_EQ(count(ViewState::kDisabled), 1);
  EXPECT_EQ(count(ViewState::kQuarantined), 1);
  EXPECT_EQ(metrics.SumFamily("mvopt_lifecycle_transitions_total"), 5);
}

TEST(ViewLifecycleRegistryTest, DefaultsToFresh) {
  ViewLifecycleRegistry reg;
  reg.EnsureSize(2);
  EXPECT_EQ(reg.state(0), ViewState::kFresh);
  EXPECT_TRUE(reg.IsFresh(1));
  EXPECT_FALSE(reg.IsSidelined(1));
  EXPECT_EQ(reg.num_sidelined(), 0);
  // Out-of-range ids read as fresh (probes may race growth).
  EXPECT_EQ(reg.state(99), ViewState::kFresh);
}

TEST(ViewLifecycleRegistryTest, StaleRoundtrip) {
  ViewLifecycleRegistry reg;
  reg.EnsureSize(1);
  reg.MarkStale(0);
  EXPECT_EQ(reg.state(0), ViewState::kStale);
  EXPECT_FALSE(reg.IsSidelined(0));  // stale views are not sidelined
  reg.MarkFresh(0, 42);
  EXPECT_EQ(reg.state(0), ViewState::kFresh);
  EXPECT_EQ(reg.epoch(0), 42u);
}

TEST(ViewLifecycleRegistryTest, VerifyStreakQuarantinesThenEscalates) {
  ViewLifecycleRegistry reg;
  reg.EnsureSize(1);
  EXPECT_FALSE(reg.ReportVerifyFailure(0, /*quarantine=*/3, /*disable=*/5));
  EXPECT_FALSE(reg.ReportVerifyFailure(0, 3, 5));
  EXPECT_TRUE(reg.ReportVerifyFailure(0, 3, 5));
  EXPECT_EQ(reg.state(0), ViewState::kQuarantined);
  EXPECT_EQ(reg.num_quarantined(), 1);
  EXPECT_FALSE(reg.ReportVerifyFailure(0, 3, 5));
  EXPECT_TRUE(reg.ReportVerifyFailure(0, 3, 5));  // streak 5: escalate
  EXPECT_EQ(reg.state(0), ViewState::kDisabled);
  EXPECT_EQ(reg.num_quarantined(), 0);
  EXPECT_EQ(reg.num_disabled(), 1);
}

TEST(ViewLifecycleRegistryTest, DisableThresholdWorksWithoutQuarantine) {
  ViewLifecycleRegistry reg;
  reg.EnsureSize(1);
  EXPECT_FALSE(reg.ReportVerifyFailure(0, /*quarantine=*/0, /*disable=*/2));
  EXPECT_TRUE(reg.ReportVerifyFailure(0, 0, 2));
  EXPECT_EQ(reg.state(0), ViewState::kDisabled);
}

TEST(ViewLifecycleRegistryTest, SuccessResetsTheStreak) {
  ViewLifecycleRegistry reg;
  reg.EnsureSize(1);
  reg.ReportVerifyFailure(0, 3, 0);
  reg.ReportVerifyFailure(0, 3, 0);
  reg.ReportVerifySuccess(0);
  EXPECT_FALSE(reg.ReportVerifyFailure(0, 3, 0));
  EXPECT_FALSE(reg.ReportVerifyFailure(0, 3, 0));
  EXPECT_EQ(reg.state(0), ViewState::kFresh);
}

TEST(ViewLifecycleRegistryTest, ChecksumMismatchDisablesFromAnyState) {
  ViewLifecycleRegistry reg;
  reg.EnsureSize(3);
  reg.MarkStale(1);
  reg.ReportVerifyFailure(2, 1, 0);  // quarantined
  EXPECT_TRUE(reg.ReportChecksumMismatch(0));
  EXPECT_TRUE(reg.ReportChecksumMismatch(1));
  EXPECT_TRUE(reg.ReportChecksumMismatch(2));
  EXPECT_EQ(reg.num_disabled(), 3);
  EXPECT_FALSE(reg.ReportChecksumMismatch(0));  // already disabled
}

TEST(ViewLifecycleRegistryTest, ReadmitClearsSidelineAndResetsBookkeeping) {
  ViewLifecycleRegistry reg;
  reg.EnsureSize(1);
  reg.ReportChecksumMismatch(0);
  EXPECT_TRUE(reg.Readmit(0, 17));
  EXPECT_EQ(reg.state(0), ViewState::kFresh);
  EXPECT_EQ(reg.epoch(0), 17u);
  EXPECT_EQ(reg.num_sidelined(), 0);
  EXPECT_FALSE(reg.Readmit(0, 18));  // not sidelined anymore
}

TEST(ViewLifecycleRegistryTest, RetryBackoffDoublesAndCaps) {
  ViewLifecycleRegistry reg;
  reg.EnsureSize(1);
  reg.ReportChecksumMismatch(0);
  // Attempts happen exactly at ticks 1, 2, 4, 8, ... (exponential).
  std::vector<int64_t> attempts;
  for (int64_t tick = 1; tick <= 20; ++tick) {
    if (reg.DueForRetry(0, tick)) {
      attempts.push_back(tick);
      reg.RecordRetryFailure(0, tick);
    }
  }
  EXPECT_EQ(attempts, (std::vector<int64_t>{1, 2, 4, 8, 16}));
  // The backoff caps: after many failures the gap stops growing.
  for (int64_t tick = 21; tick <= 400; ++tick) {
    if (reg.DueForRetry(0, tick)) reg.RecordRetryFailure(0, tick);
  }
  ViewLifecycleRegistry::Snapshot snap = reg.snapshot(0);
  EXPECT_LE(snap.retry_backoff, 64);
}

TEST(ViewLifecycleRegistryTest, RestoreRoundtripsASnapshot) {
  ViewLifecycleRegistry reg;
  reg.EnsureSize(1);
  ViewLifecycleRegistry::Snapshot snap;
  snap.state = ViewState::kQuarantined;
  snap.epoch = 5;
  snap.content_checksum = 123;
  snap.failure_streak = 2;
  reg.Restore(0, snap);
  EXPECT_EQ(reg.state(0), ViewState::kQuarantined);
  EXPECT_EQ(reg.epoch(0), 5u);
  EXPECT_EQ(reg.checksum(0), 123u);
  EXPECT_EQ(reg.num_quarantined(), 1);
}

// --- service integration --------------------------------------------------

class LifecycleServiceTest : public ::testing::Test {
 protected:
  LifecycleServiceTest() : schema_(tpch::BuildSchema(&catalog_, 0.0005)) {}

  /// An SPJ definition over lineitem; `threshold` varies the predicate so
  /// multiple distinct views can be built.
  SpjgQuery LineitemView(int64_t threshold) {
    SpjgBuilder b(&catalog_);
    int l = b.AddTable("lineitem");
    b.Where(Expr::MakeCompare(CompareOp::kGt, b.Col(l, "l_quantity"),
                              Expr::MakeLiteral(Value::Int64(threshold))));
    b.Output(b.Col(l, "l_orderkey"));
    b.Output(b.Col(l, "l_quantity"));
    return b.Build();
  }

  /// A query contained in LineitemView(threshold) for any smaller
  /// threshold (stricter predicate).
  SpjgQuery LineitemQuery() { return LineitemView(30); }

  std::vector<ViewId> Probe(MatchingService* service, QueryContext& ctx) {
    std::vector<ViewId> ids;
    SpjgQuery q = LineitemQuery();
    for (const Substitute& s : service->FindSubstitutes(q, ctx)) {
      ids.push_back(s.view_id);
    }
    return ids;
  }
  std::vector<ViewId> Probe(MatchingService* service) {
    QueryContext ctx;
    return Probe(service, ctx);
  }

  void ExpectAuditGreen(const MatchingService& service) {
    InvariantAuditor auditor;
    AuditReport report =
        auditor.AuditFilterTree(service.filter_tree(), service.views());
    EXPECT_TRUE(report.ok()) << report.Summary();
  }

  Catalog catalog_;
  tpch::Schema schema_;
};

TEST_F(LifecycleServiceTest, StaleViewIsRejectedWithKStale) {
  MatchingService service(&catalog_);
  TableEpochClock clock;
  service.set_epoch_clock(&clock);
  std::string error;
  ViewDefinition* v = service.AddView("v0", LineitemView(10), &error);
  ASSERT_NE(v, nullptr) << error;
  EXPECT_EQ(Probe(&service), std::vector<ViewId>{v->id()});

  clock.Advance(schema_.lineitem);  // base table moved past the view
  EXPECT_TRUE(Probe(&service).empty());
  EXPECT_EQ(service.view_state(v->id()), ViewState::kStale);
  EXPECT_EQ(service.StalenessLag(v->id()), 1u);
  EXPECT_GT(
      service.stats().rejects[static_cast<size_t>(RejectReason::kStale)], 0);
}

TEST_F(LifecycleServiceTest, StaleOnlyProbeReportsAdvisoryDegradation) {
  MatchingService service(&catalog_);
  TableEpochClock clock;
  service.set_epoch_clock(&clock);
  std::string error;
  ASSERT_NE(service.AddView("v0", LineitemView(10), &error), nullptr);
  clock.Advance(schema_.lineitem);

  QueryContext ctx;
  QueryBudget& budget = ctx.EmplaceBudget();
  EXPECT_TRUE(Probe(&service, ctx).empty());
  EXPECT_EQ(budget.reason(), DegradationReason::kStaleViewsOnly);
  EXPECT_FALSE(budget.exhausted()) << "advisory must not exhaust the budget";
}

TEST_F(LifecycleServiceTest, BoundedToleranceAdmitsButDownRanksStaleViews) {
  MatchingService service(&catalog_);
  TableEpochClock clock;
  service.set_epoch_clock(&clock);
  std::string error;
  ViewDefinition* stale = service.AddView("stale", LineitemView(10), &error);
  ASSERT_NE(stale, nullptr) << error;
  ViewDefinition* fresh = service.AddView("fresh", LineitemView(5), &error);
  ASSERT_NE(fresh, nullptr) << error;
  clock.Advance(schema_.lineitem);
  clock.Advance(schema_.lineitem);
  service.lifecycle().MarkFresh(fresh->id(), clock.now());

  // Within tolerance both substitute, the fresh one ranked first.
  QueryContext tolerant_ctx;
  QueryBudget& tolerant = tolerant_ctx.EmplaceBudget();
  tolerant.set_max_staleness(2);
  std::vector<ViewId> ids = Probe(&service, tolerant_ctx);
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[0], fresh->id());
  EXPECT_EQ(ids[1], stale->id());
  EXPECT_EQ(tolerant.reason(), DegradationReason::kNone);
  EXPECT_GT(service.stats().stale_tolerated, 0);

  // Below the lag, the stale view is rejected again.
  QueryContext strict;
  strict.EmplaceBudget().set_max_staleness(1);
  EXPECT_EQ(Probe(&service, strict), std::vector<ViewId>{fresh->id()});
}

TEST_F(LifecycleServiceTest, MaintenanceRefreshKeepsViewsMatchable) {
  Database db(&catalog_);
  tpch::DataGenOptions dg;
  dg.scale_factor = 0.0005;
  tpch::GenerateData(&db, schema_, dg);

  MatchingService service(&catalog_);
  TableEpochClock clock;
  service.set_epoch_clock(&clock);
  ViewMaintainer maintainer(&db);
  maintainer.set_epoch_clock(&clock);
  maintainer.set_lifecycle(&service.lifecycle());

  std::string error;
  ViewDefinition* v = service.AddView("v0", LineitemView(10), &error);
  ASSERT_NE(v, nullptr) << error;
  db.MaterializeView(v);
  maintainer.RegisterView(v);

  // A maintained insert advances the table epoch AND refreshes the view:
  // it must stay matchable, at the new epoch, with a fresh checksum.
  Row row{Value::Int64(1),        Value::Int64(1),
          Value::Int64(1),        Value::Int64(900),
          Value::Int64(40),       Value::Double(40000.0),
          Value::Double(0.05),    Value::Double(0.02),
          Value::String("N"),     Value::String("O"),
          Value::Date(9000),      Value::Date(9010),
          Value::Date(9020),      Value::String("NONE"),
          Value::String("AIR"),   Value::String("row")};
  maintainer.Insert(schema_.lineitem, {row});
  EXPECT_EQ(service.view_state(v->id()), ViewState::kFresh);
  EXPECT_EQ(service.StalenessLag(v->id()), 0u);
  EXPECT_EQ(Probe(&service), std::vector<ViewId>{v->id()});
  EXPECT_EQ(service.lifecycle().checksum(v->id()),
            db.table(v->materialized_table())->ContentChecksum());
  EXPECT_TRUE(maintainer.Validate(*v));
}

TEST_F(LifecycleServiceTest, ChecksumBreakerDisablesAndRepairReadmits) {
  Database db(&catalog_);
  tpch::DataGenOptions dg;
  dg.scale_factor = 0.0005;
  tpch::GenerateData(&db, schema_, dg);

  MatchingService service(&catalog_);
  TableEpochClock clock;
  service.set_epoch_clock(&clock);
  ViewMaintainer maintainer(&db);
  maintainer.set_epoch_clock(&clock);
  maintainer.set_lifecycle(&service.lifecycle());

  std::string error;
  ViewDefinition* v = service.AddView("v0", LineitemView(10), &error);
  ASSERT_NE(v, nullptr) << error;
  db.MaterializeView(v);
  maintainer.RegisterView(v);
  ASSERT_TRUE(maintainer.Validate(*v));

  // Corrupt the materialized contents behind the maintainer's back.
  db.table(v->materialized_table())
      ->AppendRow({Value::Int64(-1), Value::Int64(-1)});
  EXPECT_FALSE(maintainer.Validate(*v));
  EXPECT_TRUE(service.ReportChecksumMismatch(v->id()));
  EXPECT_EQ(service.view_state(v->id()), ViewState::kDisabled);
  // The breaker removed the view from the filter tree outright, so it
  // is not even a candidate (no quarantine_skips accounting — compare
  // the probe-side skip path in VerifyStreakQuarantine below).
  EXPECT_TRUE(Probe(&service).empty());
  EXPECT_EQ(service.QuarantinedViews(), std::vector<std::string>{"v0"});
  ExpectAuditGreen(service);

  // Background revalidation: while the data stays corrupt the view stays
  // out (with exponential backoff between attempts)...
  auto validate_and_repair = [&](const ViewDefinition& view) {
    if (maintainer.Validate(view)) return true;
    return false;
  };
  EXPECT_EQ(service.RevalidationTick(validate_and_repair), 0);
  EXPECT_EQ(service.view_state(v->id()), ViewState::kDisabled);

  // ...and once the data is repaired, the next due tick readmits it and
  // re-inserts it into the filter tree, so it matches again.
  maintainer.Repair(v);
  int readmitted = 0;
  for (int i = 0; i < 70 && readmitted == 0; ++i) {
    readmitted = service.RevalidationTick(validate_and_repair);
  }
  EXPECT_EQ(readmitted, 1);
  EXPECT_EQ(service.view_state(v->id()), ViewState::kFresh);
  EXPECT_EQ(Probe(&service), std::vector<ViewId>{v->id()});
  ExpectAuditGreen(service);
}

#ifdef MVOPT_FAILPOINTS

TEST_F(LifecycleServiceTest, VerifyStreakQuarantineAndExplicitReadmission) {
  MatchingService::Options options;
  options.verify_mode = VerifyMode::kEnforce;
  options.quarantine_threshold = 2;
  MatchingService service(&catalog_, options);
  std::string error;
  ViewDefinition* v = service.AddView("v0", LineitemView(10), &error);
  ASSERT_NE(v, nullptr) << error;

  FailpointConfig cfg;
  cfg.count = -1;
  FailpointRegistry::Instance().Enable("rewrite_checker.check", cfg);
  EXPECT_TRUE(Probe(&service).empty());
  EXPECT_FALSE(service.IsQuarantined(v->id()));
  EXPECT_TRUE(Probe(&service).empty());
  EXPECT_TRUE(service.IsQuarantined(v->id()));
  EXPECT_EQ(service.view_state(v->id()), ViewState::kQuarantined);
  FailpointRegistry::Instance().DisableAll();

  // Quarantined views are skipped outright — the checker never runs.
  int64_t checked_before = service.verify_stats().checked;
  EXPECT_TRUE(Probe(&service).empty());
  EXPECT_EQ(service.verify_stats().checked, checked_before);
  EXPECT_EQ(service.verify_stats().quarantined_views, 1);

  // Explicit re-admission: matchable again, filter tree consistent.
  EXPECT_TRUE(service.ReadmitView(v->id()));
  EXPECT_EQ(Probe(&service), std::vector<ViewId>{v->id()});
  EXPECT_EQ(service.verify_stats().quarantined_views, 0);
  ExpectAuditGreen(service);
}

#endif  // MVOPT_FAILPOINTS

TEST_F(LifecycleServiceTest, DuplicateNameRejectionIsTransactional) {
  MatchingService service(&catalog_);
  std::string error;
  ViewDefinition* v = service.AddView("dup", LineitemView(10), &error);
  ASSERT_NE(v, nullptr) << error;

  // The duplicate is rejected at the commit point: no exception, no
  // partial state, no disturbance of the original registration.
  error.clear();
  EXPECT_EQ(service.AddView("dup", LineitemView(20), &error), nullptr);
  EXPECT_NE(error.find("already registered"), std::string::npos);
  EXPECT_EQ(service.views().num_views(), 1);
  EXPECT_EQ(service.views().FindView("dup"), v);
  ExpectAuditGreen(service);

  // Later registrations proceed with consistent ids.
  ViewDefinition* w = service.AddView("other", LineitemView(5), &error);
  ASSERT_NE(w, nullptr) << error;
  EXPECT_EQ(w->id(), v->id() + 1);
  std::vector<ViewId> ids = Probe(&service);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<ViewId>{v->id(), w->id()}));
}

}  // namespace
}  // namespace mvopt
