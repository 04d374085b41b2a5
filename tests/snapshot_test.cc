// Immutable-snapshot probe path (DESIGN.md §15): EpochDomain unit
// semantics, snapshot publication/reclamation bookkeeping, the
// republication cross-check — probe results, ordering and stats of a
// service that went through many published generations are
// byte-identical to those of a reference built fresh into the same
// state — and the structural-sharing rule: generations share nodes, a
// pinned generation never changes, and one AddView copies only its own
// filter-tree path.

#include <atomic>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/epoch_reclaim.h"
#include "common/failpoint.h"
#include "common/query_context.h"
#include "index/matching_service.h"
#include "tpch/schema.h"
#include "tpch/workload.h"
#include "verify/invariant_auditor.h"

namespace mvopt {
namespace {

// ---------------------------------------------------------------------
// EpochDomain.
// ---------------------------------------------------------------------

/// Deletion-observable payload for reclamation tests.
struct Tracked {
  explicit Tracked(std::atomic<int>* freed) : freed_(freed) {}
  ~Tracked() { freed_->fetch_add(1); }
  std::atomic<int>* freed_;
};

TEST(EpochDomainTest, RetireWithoutPinsFreesImmediately) {
  std::atomic<int> freed{0};
  EpochDomain domain;
  domain.Retire(new Tracked(&freed));
  // Retire runs an opportunistic reclaim; with no pin active the object
  // must not linger.
  EXPECT_EQ(freed.load(), 1);
  EXPECT_EQ(domain.retired_count(), 0);
}

TEST(EpochDomainTest, ActivePinBlocksReclamationUntilUnpin) {
  std::atomic<int> freed{0};
  EpochDomain domain;
  {
    EpochPin pin(domain);
    domain.Retire(new Tracked(&freed));
    domain.Retire(new Tracked(&freed));
    EXPECT_EQ(freed.load(), 0) << "freed while a pin could reference it";
    EXPECT_EQ(domain.retired_count(), 2);
    EXPECT_EQ(domain.TryReclaim(), 0u);
  }
  // Pin released: everything retired under it is now reclaimable.
  EXPECT_EQ(domain.TryReclaim(), 2u);
  EXPECT_EQ(freed.load(), 2);
  EXPECT_EQ(domain.retired_count(), 0);
}

TEST(EpochDomainTest, PinTakenAfterRetireDoesNotResurrectTheBlock) {
  // A pin taken AFTER a retirement holds a newer epoch, so it must not
  // keep that older retired object alive.
  std::atomic<int> freed{0};
  EpochDomain domain;
  {
    EpochPin earlier(domain);
    domain.Retire(new Tracked(&freed));
    EXPECT_EQ(freed.load(), 0);
    {
      EpochPin later(domain);
      earlier.Unpin();
      // Only the newer pin remains; its epoch is past the stamp.
      EXPECT_EQ(domain.TryReclaim(), 1u);
      EXPECT_EQ(freed.load(), 1);
    }
  }
}

TEST(EpochDomainTest, EpochAdvancesOncePerRetirement) {
  EpochDomain domain;
  const uint64_t before = domain.current_epoch();
  std::atomic<int> freed{0};
  domain.Retire(new Tracked(&freed));
  domain.Retire(new Tracked(&freed));
  EXPECT_EQ(domain.current_epoch(), before + 2);
}

TEST(EpochDomainTest, DestructorDrainsEverythingStillRetired) {
  std::atomic<int> freed{0};
  {
    EpochDomain domain;
    {
      EpochPin pin(domain);
      domain.Retire(new Tracked(&freed));
    }
    // No TryReclaim after the unpin: the destructor must drain.
    EXPECT_EQ(freed.load(), 0);
  }
  EXPECT_EQ(freed.load(), 1);
}

TEST(EpochDomainTest, ScopedPinEarlyUnpinReleasesTheSlot) {
  EpochDomain domain;
  std::atomic<int> freed{0};
  EpochPin pin(domain);
  pin.Unpin();
  domain.Retire(new Tracked(&freed));
  EXPECT_EQ(freed.load(), 1) << "early Unpin left the slot pinned";
}

// ---------------------------------------------------------------------
// MatchingService snapshot lifecycle.
// ---------------------------------------------------------------------

class SnapshotTest : public ::testing::Test {
 protected:
  SnapshotTest() : schema_(tpch::BuildSchema(&catalog_, 0.5)) {
    tpch::WorkloadGenerator view_gen(&catalog_, 31);
    for (int i = 0; i < 24; ++i) view_defs_.push_back(view_gen.GenerateView());
    tpch::WorkloadGenerator query_gen(&catalog_, 31 + 555);
    for (int i = 0; i < 20; ++i) queries_.push_back(query_gen.GenerateQuery());
    // Half the queries double as views so substitution definitely fires.
    for (size_t i = 0; i < queries_.size(); i += 2) {
      view_defs_.push_back(queries_[i]);
    }
  }

  void TearDown() override { FailpointRegistry::Instance().DisableAll(); }

  void SeedViews(MatchingService* service) {
    std::string error;
    for (size_t i = 0; i < view_defs_.size(); ++i) {
      ASSERT_NE(service->AddView("v" + std::to_string(i), view_defs_[i],
                                 &error),
                nullptr)
          << error;
    }
  }

  Catalog catalog_;
  tpch::Schema schema_;
  std::vector<SpjgQuery> view_defs_;
  std::vector<SpjgQuery> queries_;
};

/// Structural fingerprint of one substitute, position-sensitive: the
/// cross-check compares sequences of these, so ordering differences
/// between the two services fail loudly.
using SubFp = std::tuple<ViewId, uint64_t, size_t, size_t, size_t, size_t,
                         bool>;

SubFp Fingerprint(const Substitute& s) {
  return {s.view_id,          s.staleness_lag,  s.backjoins.size(),
          s.predicates.size(), s.outputs.size(), s.group_by.size(),
          s.needs_aggregation};
}

std::vector<SubFp> Fingerprints(const std::vector<Substitute>& subs) {
  std::vector<SubFp> out;
  out.reserve(subs.size());
  for (const Substitute& s : subs) out.push_back(Fingerprint(s));
  return out;
}

void ExpectStatsEqual(const MatchingStats& a, const MatchingStats& b) {
  EXPECT_EQ(a.invocations, b.invocations);
  EXPECT_EQ(a.candidates, b.candidates);
  EXPECT_EQ(a.full_tests, b.full_tests);
  EXPECT_EQ(a.substitutes, b.substitutes);
  EXPECT_EQ(a.match_failures, b.match_failures);
  EXPECT_EQ(a.budget_truncations, b.budget_truncations);
  EXPECT_EQ(a.quarantine_skips, b.quarantine_skips);
  EXPECT_EQ(a.stale_tolerated, b.stale_tolerated);
  for (size_t i = 0; i < a.rejects.size(); ++i) {
    EXPECT_EQ(a.rejects[i], b.rejects[i]) << "reject reason " << i;
  }
}

// The republication cross-check: a service whose every write published
// a new generation — one per AddView, then a sideline and a readmission
// of view 1, each cloning and republishing — answers exactly like a
// reference service built fresh into the same state: byte-identical
// results (sequence of structural fingerprints — ordering included) and
// stats, for both FindSubstitutes and FindUnionSubstitute, before, while
// and after view 1 is sidelined.
TEST_F(SnapshotTest, RepublishedAndFreshProbesAreByteIdentical) {
  MatchingService service(&catalog_);
  SeedViews(&service);

  auto cross_check = [&](bool view_1_sidelined) {
    MatchingService reference(&catalog_);
    SeedViews(&reference);
    if (view_1_sidelined) {
      ASSERT_TRUE(reference.ReportChecksumMismatch(1));
    }
    service.ResetStats();
    for (size_t qi = 0; qi < queries_.size(); ++qi) {
      QueryContext ctx_a, ctx_b;
      const std::vector<Substitute> a =
          service.FindSubstitutes(queries_[qi], ctx_a);
      const std::vector<Substitute> b =
          reference.FindSubstitutes(queries_[qi], ctx_b);
      EXPECT_EQ(Fingerprints(a), Fingerprints(b)) << "query " << qi;

      QueryContext uctx_a, uctx_b;
      const auto ua = service.FindUnionSubstitute(queries_[qi], uctx_a);
      const auto ub = reference.FindUnionSubstitute(queries_[qi], uctx_b);
      ASSERT_EQ(ua.has_value(), ub.has_value()) << "query " << qi;
      if (ua.has_value()) {
        EXPECT_EQ(Fingerprints(ua->legs), Fingerprints(ub->legs))
            << "query " << qi;
      }
    }
    ExpectStatsEqual(service.stats(), reference.stats());
  };

  cross_check(/*view_1_sidelined=*/false);
  ASSERT_TRUE(service.ReportChecksumMismatch(1));
  cross_check(/*view_1_sidelined=*/true);
  ASSERT_TRUE(service.ReadmitView(1));
  cross_check(/*view_1_sidelined=*/false);
}

TEST_F(SnapshotTest, VersionBumpsOnWritesNotProbes) {
  MatchingService service(&catalog_);
  EXPECT_EQ(service.snapshot_version(), 0u);
  std::string error;
  ASSERT_NE(service.AddView("v0", view_defs_[0], &error), nullptr) << error;
  EXPECT_EQ(service.snapshot_version(), 1u);
  ASSERT_NE(service.AddView("v1", view_defs_[1], &error), nullptr) << error;
  EXPECT_EQ(service.snapshot_version(), 2u);

  // Probes never publish.
  for (const SpjgQuery& q : queries_) {
    QueryContext ctx;
    service.FindSubstitutes(q, ctx);
  }
  EXPECT_EQ(service.snapshot_version(), 2u);

  // A quiet revalidation tick (nothing sidelined) skips the clone.
  service.RevalidationTick([](const ViewDefinition&) { return true; });
  EXPECT_EQ(service.snapshot_version(), 2u);

  // Quarantine entry via checksum breaker republishes (tree compaction);
  // readmission republishes again (tree re-insertion).
  ASSERT_TRUE(service.ReportChecksumMismatch(0));
  EXPECT_EQ(service.snapshot_version(), 3u);
  ASSERT_TRUE(service.ReadmitView(0));
  EXPECT_EQ(service.snapshot_version(), 4u);
}

TEST_F(SnapshotTest, RetiredSnapshotsReclaimWhenNoProbeIsPinned) {
  MatchingService service(&catalog_);
  SeedViews(&service);
  // Every publication retired a predecessor; with no concurrent pins the
  // opportunistic reclaim inside publication frees them as it goes.
  EXPECT_EQ(service.retired_snapshots(), 0);
}

TEST_F(SnapshotTest, ResolveViewReferencesSurviveRepublication) {
  MatchingService service(&catalog_);
  std::string error;
  ASSERT_NE(service.AddView("stable", view_defs_[0], &error), nullptr)
      << error;
  const ViewDefinition& ref = service.ResolveView(0);
  EXPECT_EQ(ref.name(), "stable");
  // Retire many generations under the reference.
  for (int i = 1; i < 12; ++i) {
    ASSERT_NE(service.AddView("v" + std::to_string(i), view_defs_[i], &error),
              nullptr)
        << error;
  }
  // Definitions are shared across generations: the old reference still
  // names the same object even though its snapshot is long reclaimed.
  EXPECT_EQ(ref.name(), "stable");
  EXPECT_EQ(&service.ResolveView(0), &ref);
}

TEST_F(SnapshotTest, FailedAddViewDiscardsTheCloneNotTheSnapshot) {
  MatchingService service(&catalog_);
  std::string error;
  ASSERT_NE(service.AddView("v0", view_defs_[0], &error), nullptr) << error;
  const uint64_t version = service.snapshot_version();

  FailpointRegistry::Instance().Enable("view_catalog.describe");
  EXPECT_EQ(service.AddView("victim", view_defs_[1], &error), nullptr);
  EXPECT_NE(error.find("rolled back"), std::string::npos);
  // The failure happened on the unpublished clone: nothing republished,
  // nothing retired, no partial state visible.
  EXPECT_EQ(service.snapshot_version(), version);
  EXPECT_EQ(service.views().num_views(), 1);
  EXPECT_EQ(service.views().FindView("victim"), nullptr);

  // The site fired its single shot; the retry goes through and publishes.
  ASSERT_NE(service.AddView("victim", view_defs_[1], &error), nullptr)
      << error;
  EXPECT_EQ(service.snapshot_version(), version + 1);
}

// ---------------------------------------------------------------------
// Structural sharing between generations.
// ---------------------------------------------------------------------

/// Everything a reader can observe of one generation: its views and
/// where they live, and the filter tree's answers and structure.
struct GenerationImage {
  int num_views = 0;
  std::vector<const ViewDefinition*> by_name;
  std::vector<const ViewDescription*> descriptions;
  std::vector<const MatchProgram*> programs;
  std::vector<std::vector<ViewId>> candidates;
  uint64_t tree_digest = 0;

  bool operator==(const GenerationImage&) const = default;
};

GenerationImage ImageOf(const CatalogSnapshot& snap,
                        const std::vector<QueryDescription>& queries) {
  GenerationImage image;
  image.num_views = snap.views.num_views();
  for (ViewId id = 0; id < image.num_views; ++id) {
    image.by_name.push_back(snap.views.FindView(snap.views.view(id).name()));
    image.descriptions.push_back(&snap.views.description(id));
    image.programs.push_back(snap.views.program(id).get());
  }
  for (const QueryDescription& q : queries) {
    QueryContext ctx;
    image.candidates.push_back(snap.tree.FindCandidates(q, ctx));
  }
  image.tree_digest = InvariantAuditor().TreeDigest(snap.tree);
  return image;
}

// A pinned generation answers exactly as it did at publication, however
// many later generations copy and mutate the nodes it shares: AddView,
// checksum quarantine, readmission and revalidation all publish here.
TEST_F(SnapshotTest, PinnedGenerationsNeverChange) {
  MatchingService service(&catalog_);
  SeedViews(&service);
  std::vector<QueryDescription> queries;
  for (const SpjgQuery& q : queries_) {
    queries.push_back(DescribeQuery(catalog_, q));
  }
  using Pinned = MatchingService::PinnedGenerationForTest;
  std::vector<std::unique_ptr<Pinned>> pinned;
  std::vector<GenerationImage> images;
  auto pin = [&] {
    pinned.push_back(std::make_unique<Pinned>(service));
    images.push_back(ImageOf(**pinned.back(), queries));
  };

  pin();
  tpch::WorkloadGenerator gen(&catalog_, 2024);
  std::string error;
  for (int i = 0; i < 4; ++i) {
    ASSERT_NE(service.AddView("late" + std::to_string(i), gen.GenerateView(),
                              &error),
              nullptr)
        << error;
    pin();
  }
  ASSERT_TRUE(service.ReportChecksumMismatch(1));
  pin();
  ASSERT_TRUE(service.ReadmitView(1));
  pin();
  ASSERT_TRUE(service.ReportChecksumMismatch(2));
  ASSERT_TRUE(service.ReportChecksumMismatch(3));
  pin();
  EXPECT_EQ(service.RevalidationTick([](const ViewDefinition&) {
              return true;
            }),
            2);
  pin();
  EXPECT_EQ((*pinned.back())->version, (*pinned.front())->version + 9);

  InvariantAuditor auditor;
  for (size_t g = 0; g < pinned.size(); ++g) {
    SCOPED_TRACE("generation " + std::to_string((*pinned[g])->version));
    EXPECT_TRUE(ImageOf(**pinned[g], queries) == images[g]);
    const AuditReport report =
        auditor.AuditFilterTree((*pinned[g])->tree, (*pinned[g])->views);
    EXPECT_TRUE(report.ok()) << report.Summary();
  }
  // The views the first generation knows are the same objects in the
  // last one: entries are shared, not copied.
  for (ViewId id = 0; id < images.front().num_views; ++id) {
    EXPECT_EQ(&(*pinned.back())->views.description(id),
              images.front().descriptions[id]);
  }
}

// One AddView leaves at most the nodes of the new view's root-to-leaf
// path unshared with the previous generation — 6 for an SPJ view, 8 for
// an aggregation view — however large the catalog.
TEST_F(SnapshotTest, AddViewCopiesOnlyItsFilterTreePath) {
  MatchingService service(&catalog_);
  tpch::WorkloadGenerator gen(&catalog_, 97);
  InvariantAuditor auditor;
  std::string error;
  int registered = 0;
  for (int size : {100, 2000}) {
    for (; registered < size; ++registered) {
      ASSERT_NE(service.AddView("g" + std::to_string(registered),
                                gen.GenerateView(), &error),
                nullptr)
          << error;
    }
    for (int k = 0; k < 10; ++k, ++registered) {
      MatchingService::PinnedGenerationForTest before(service);
      ViewDefinition* view = service.AddView(
          "g" + std::to_string(registered), gen.GenerateView(), &error);
      ASSERT_NE(view, nullptr) << error;
      MatchingService::PinnedGenerationForTest after(service);
      const bool aggregate = after->views.description(view->id()).is_aggregate;
      const int64_t unshared =
          auditor.CountUnsharedNodes(after->tree, before->tree);
      EXPECT_GE(unshared, 1) << "catalog of " << size;
      EXPECT_LE(unshared, aggregate ? 8 : 6) << "catalog of " << size;
      EXPECT_EQ(&after->views.description(0), &before->views.description(0));
    }
  }
}

}  // namespace
}  // namespace mvopt
