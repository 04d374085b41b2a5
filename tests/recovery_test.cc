// Crash-recovery acceptance tests for the durable catalog: a fault is
// injected at every catalog_store failpoint site in turn, the "crashed"
// state on disk is recovered into a fresh MatchingService, and the
// recovered catalog must (a) audit green, (b) contain every view whose
// registration was acknowledged (or failed with durable()==true), and
// (c) contain no view whose registration failed non-durably.

#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "index/matching_service.h"
#include "rewrite/catalog_store.h"
#include "tpch/schema.h"
#include "tpch/workload.h"
#include "verify/invariant_auditor.h"

namespace mvopt {
namespace {

constexpr const char* kStoreSites[] = {
    "catalog_store.wal_append",   "catalog_store.wal_write",
    "catalog_store.wal_fsync",    "catalog_store.commit",
    "catalog_store.snapshot_write", "catalog_store.snapshot_rename",
    "catalog_store.wal_truncate",
};

class RecoveryTest : public ::testing::Test {
 protected:
  RecoveryTest() : schema_(tpch::BuildSchema(&catalog_, 0.5)) {
    tpch::WorkloadGenerator gen(&catalog_, 31);
    for (int i = 0; i < 12; ++i) view_defs_.push_back(gen.GenerateView());
    char tmpl[] = "/tmp/mvopt_recovery_XXXXXX";
    dir_ = ::mkdtemp(tmpl);
  }
  ~RecoveryTest() override {
    FailpointRegistry::Instance().DisableAll();
    std::string cmd = "rm -rf " + dir_;
    (void)::system(cmd.c_str());
  }

  void ExpectAuditGreen(const MatchingService& service) {
    InvariantAuditor auditor;
    AuditReport report =
        auditor.AuditFilterTree(service.filter_tree(), service.views());
    EXPECT_TRUE(report.ok()) << report.Summary();
  }

  Catalog catalog_;
  tpch::Schema schema_;
  std::vector<SpjgQuery> view_defs_;
  std::string dir_;
};

TEST_F(RecoveryTest, CatalogSurvivesRestart) {
  {
    MatchingService service(&catalog_);
    CatalogStore store(dir_);
    service.AttachStore(&store);
    std::string error;
    for (size_t i = 0; i < view_defs_.size(); ++i) {
      ASSERT_NE(service.AddView("v" + std::to_string(i), view_defs_[i],
                                &error),
                nullptr)
          << error;
    }
  }
  MatchingService reborn(&catalog_);
  CatalogStore store(dir_);
  RecoveryReport report = reborn.RecoverFrom(&store);
  EXPECT_TRUE(report.clean()) << report.ToJson();
  EXPECT_EQ(report.views_recovered,
            static_cast<int64_t>(view_defs_.size()));
  EXPECT_EQ(reborn.views().num_views(),
            static_cast<int>(view_defs_.size()));
  for (size_t i = 0; i < view_defs_.size(); ++i) {
    EXPECT_NE(reborn.views().FindView("v" + std::to_string(i)), nullptr);
  }
  ExpectAuditGreen(reborn);
}

TEST_F(RecoveryTest, CheckpointPersistsLifecycleStates) {
  {
    MatchingService service(&catalog_);
    CatalogStore store(dir_);
    service.AttachStore(&store);
    std::string error;
    for (int i = 0; i < 4; ++i) {
      ASSERT_NE(service.AddView("v" + std::to_string(i), view_defs_[i],
                                &error),
                nullptr)
          << error;
    }
    service.ReportChecksumMismatch(1);
    service.Checkpoint();
  }
  MatchingService reborn(&catalog_);
  CatalogStore store(dir_);
  RecoveryReport report = reborn.RecoverFrom(&store);
  EXPECT_TRUE(report.snapshot_loaded);
  EXPECT_EQ(reborn.views().num_views(), 4);
  EXPECT_EQ(reborn.view_state(1), ViewState::kDisabled);
  EXPECT_TRUE(reborn.IsQuarantined(1));
  EXPECT_EQ(reborn.view_state(0), ViewState::kFresh);
  // The disabled view stays out of matching after the restart; the
  // others are immediately usable.
  ExpectAuditGreen(reborn);
}

TEST_F(RecoveryTest, UnreplayableEntryIsQuarantinedNotFatal) {
  {
    CatalogStore store(dir_);
    store.OpenForAppend();
    PersistedView good;
    good.name = "good";
    good.sql = view_defs_[0].ToSql(catalog_);
    store.AppendAddView(good);
    PersistedView bad;
    bad.name = "bad";
    bad.sql = "SELECT nonsense FROM nowhere";
    store.AppendAddView(bad);
    PersistedView worse;
    worse.name = "worse";
    worse.sql = view_defs_[1].ToSql(catalog_);
    worse.state = static_cast<ViewState>(250);  // invalid durable state
    store.AppendAddView(worse);
  }
  MatchingService service(&catalog_);
  CatalogStore store(dir_);
  RecoveryReport report = service.RecoverFrom(&store);
  EXPECT_EQ(service.views().num_views(), 1);
  EXPECT_NE(service.views().FindView("good"), nullptr);
  ASSERT_EQ(report.quarantined.size(), 2u);
  EXPECT_EQ(report.quarantined[0].name, "bad");
  EXPECT_EQ(report.quarantined[1].name, "worse");
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.views_recovered, 1);
  ExpectAuditGreen(service);
  // The survivor keeps working: the service accepts new registrations
  // and probes behind the quarantined entries.
  std::string error;
  EXPECT_NE(service.AddView("after", view_defs_[2], &error), nullptr)
      << error;
}

#ifdef MVOPT_FAILPOINTS

TEST_F(RecoveryTest, KillAtEveryFailpointNeverLosesACommittedView) {
  // One failure site per iteration; within an iteration: register views
  // before arming (committed), one under the armed site (outcome decided
  // by durable()), then "crash" by abandoning the service and store and
  // recovering from disk.
  for (const char* site : kStoreSites) {
    SCOPED_TRACE(site);
    std::string cmd = "rm -rf " + dir_ + " && mkdir " + dir_;
    ASSERT_EQ(::system(cmd.c_str()), 0);

    std::unordered_set<std::string> committed;
    std::unordered_set<std::string> uncommitted;
    {
      MatchingService service(&catalog_);
      CatalogStore store(dir_);
      service.AttachStore(&store);
      std::string error;
      for (int i = 0; i < 3; ++i) {
        std::string name = "pre" + std::to_string(i);
        ASSERT_NE(service.AddView(name, view_defs_[i], &error), nullptr)
            << error;
        committed.insert(name);
      }
      // Snapshot sites fire inside Checkpoint, WAL sites inside AddView;
      // arm the site for both paths and accept either failure shape.
      FailpointRegistry::Instance().Enable(site);
      try {
        service.Checkpoint();
      } catch (const StoreIoError&) {
        // Snapshot either fully installed or fully ignored; both are
        // recoverable. Nothing to record: checkpoints move no views.
      }
      std::string error2;
      ViewDefinition* v = service.AddView("armed", view_defs_[3], &error2);
      if (v != nullptr) {
        // Either the append succeeded (site already consumed by the
        // checkpoint) or it failed durably and the service kept the
        // registration: the view must survive the crash.
        committed.insert("armed");
      } else {
        uncommitted.insert("armed");
      }
      FailpointRegistry::Instance().DisableAll();
      // Crash: no Close(), no flush — the store object is abandoned with
      // whatever bytes reached the files.
    }

    MatchingService reborn(&catalog_);
    CatalogStore store(dir_);
    RecoveryReport report = reborn.RecoverFrom(&store);
    EXPECT_TRUE(report.quarantined.empty()) << report.ToJson();
    for (const std::string& name : committed) {
      EXPECT_NE(reborn.views().FindView(name), nullptr)
          << "committed view lost: " << name << "\n"
          << report.ToJson();
    }
    for (const std::string& name : uncommitted) {
      EXPECT_EQ(reborn.views().FindView(name), nullptr)
          << "uncommitted view resurrected: " << name << "\n"
          << report.ToJson();
    }
    ExpectAuditGreen(reborn);
    // The recovered service accepts appends (the torn tail, if any, was
    // repaired when the store reopened).
    std::string error;
    EXPECT_NE(reborn.AddView("post", view_defs_[4], &error), nullptr)
        << site << ": " << error;
  }
}

TEST_F(RecoveryTest, NonDurableWalFailureRollsTheRegistrationBack) {
  MatchingService service(&catalog_);
  CatalogStore store(dir_);
  service.AttachStore(&store);
  std::string error;
  ASSERT_NE(service.AddView("v0", view_defs_[0], &error), nullptr);

  FailpointRegistry::Instance().Enable("catalog_store.wal_write");
  EXPECT_EQ(service.AddView("torn", view_defs_[1], &error), nullptr);
  EXPECT_NE(error.find("rolled back"), std::string::npos) << error;
  FailpointRegistry::Instance().DisableAll();

  // In-memory state rolled back in lockstep with the log...
  EXPECT_EQ(service.views().num_views(), 1);
  EXPECT_EQ(service.views().FindView("torn"), nullptr);
  ExpectAuditGreen(service);
  // ...and the name is free for a clean retry (id reused, WAL repaired).
  ViewDefinition* retry = service.AddView("torn", view_defs_[1], &error);
  ASSERT_NE(retry, nullptr) << error;
  EXPECT_EQ(retry->id(), 1);

  MatchingService reborn(&catalog_);
  CatalogStore store2(dir_);
  RecoveryReport report = reborn.RecoverFrom(&store2);
  EXPECT_EQ(reborn.views().num_views(), 2);
  EXPECT_TRUE(report.quarantined.empty()) << report.ToJson();
}

TEST_F(RecoveryTest, DurableCommitErrorKeepsTheRegistration) {
  MatchingService service(&catalog_);
  CatalogStore store(dir_);
  service.AttachStore(&store);
  std::string error;

  FailpointRegistry::Instance().Enable("catalog_store.commit");
  // The append hit a post-fsync failure: the record is durable, so the
  // registration is acknowledged despite the internal error.
  ViewDefinition* v = service.AddView("v0", view_defs_[0], &error);
  FailpointRegistry::Instance().DisableAll();
  ASSERT_NE(v, nullptr) << error;
  EXPECT_EQ(service.views().num_views(), 1);

  MatchingService reborn(&catalog_);
  CatalogStore store2(dir_);
  (void)reborn.RecoverFrom(&store2);
  EXPECT_NE(reborn.views().FindView("v0"), nullptr);
}

#endif  // MVOPT_FAILPOINTS

}  // namespace
}  // namespace mvopt
