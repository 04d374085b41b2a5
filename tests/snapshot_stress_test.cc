// Multi-threaded stress for the lock-free probe path (DESIGN.md §15):
// probes racing snapshot publication, epoch-based reclamation under
// churn, lifecycle quarantine/readmission flapping mid-probe, probes on
// pinned older generations racing writers that copy the paths those
// generations share, probes completing while a writer holds the writer
// mutex, and the concurrent-vs-serial stats contract on the snapshot
// path. Run under MVOPT_SANITIZE=thread in CI — the interesting failures
// here are use-after-free of a retired snapshot and torn probe state,
// which TSan and ASan surface even when the assertions below stay green.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/epoch_reclaim.h"
#include "common/query_context.h"
#include "index/matching_service.h"
#include "tests/filter_oracle.h"
#include "tpch/schema.h"
#include "tpch/workload.h"
#include "verify/invariant_auditor.h"

namespace mvopt {
namespace {

constexpr int kNumViews = 60;
constexpr int kInitialViews = 20;
constexpr int kNumQueries = 20;
constexpr int kNumProbers = 4;

class SnapshotStressTest : public ::testing::Test {
 protected:
  SnapshotStressTest() : schema_(tpch::BuildSchema(&catalog_, 0.5)) {
    tpch::WorkloadGenerator view_gen(&catalog_, 77);
    for (int i = 0; i < kNumViews; ++i) {
      view_defs_.push_back(view_gen.GenerateView());
    }
    tpch::WorkloadGenerator query_gen(&catalog_, 77 + 555);
    for (int i = 0; i < kNumQueries; ++i) {
      queries_.push_back(query_gen.GenerateQuery());
    }
  }

  void AddViewRange(MatchingService* service, int begin, int end) {
    for (int i = begin; i < end; ++i) {
      std::string error;
      ASSERT_NE(
          service->AddView("v" + std::to_string(i), view_defs_[i], &error),
          nullptr)
          << error;
    }
  }

  std::vector<ViewId> Signature(const std::vector<Substitute>& subs) {
    std::vector<ViewId> ids;
    for (const Substitute& s : subs) ids.push_back(s.view_id);
    std::sort(ids.begin(), ids.end());
    return ids;
  }

  Catalog catalog_;
  tpch::Schema schema_;
  std::vector<SpjgQuery> view_defs_;
  std::vector<SpjgQuery> queries_;
};

// Probes on the lock-free path race a writer that publishes a new
// snapshot per AddView (40 publications, each retiring a predecessor a
// prober may still be standing on). After the churn, answers must equal
// a serial reference and every retired generation must have drained.
TEST_F(SnapshotStressTest, ProbesRacePublicationAndReclamation) {
  MatchingService service(&catalog_);
  AddViewRange(&service, 0, kInitialViews);

  std::atomic<int64_t> probes{0};
  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    AddViewRange(&service, kInitialViews, kNumViews);
    writer_done.store(true);
  });
  std::vector<std::thread> probers;
  for (int t = 0; t < kNumProbers; ++t) {
    probers.emplace_back([&, t] {
      // Keep probing until the writer finishes so publication genuinely
      // overlaps pinned probes for the whole registration sweep.
      do {
        for (size_t q = t; q < queries_.size(); q += kNumProbers) {
          QueryContext ctx;
          for (const Substitute& s : service.FindSubstitutes(queries_[q], ctx)) {
            EXPECT_NE(s.view_id, kInvalidViewId);
          }
          QueryContext uctx;
          (void)service.FindUnionSubstitute(queries_[q], uctx);
          probes.fetch_add(1);
        }
      } while (!writer_done.load());
    });
  }
  writer.join();
  for (std::thread& p : probers) p.join();
  EXPECT_GT(probes.load(), 0);
  EXPECT_EQ(service.views().num_views(), kNumViews);

  // Quiescent: one more publication runs the opportunistic reclaim with
  // no pins outstanding — every retired snapshot must be gone.
  std::string error;
  ASSERT_NE(service.AddView("tail", view_defs_[0], &error), nullptr) << error;
  EXPECT_EQ(service.retired_snapshots(), 0);

  MatchingService reference(&catalog_);
  AddViewRange(&reference, 0, kNumViews);
  ASSERT_NE(reference.AddView("tail", view_defs_[0], &error), nullptr)
      << error;
  for (size_t q = 0; q < queries_.size(); ++q) {
    QueryContext ctx;
    EXPECT_EQ(Signature(service.FindSubstitutes(queries_[q], ctx)),
              Signature(reference.FindSubstitutes(queries_[q], ctx)))
        << "query " << q;
  }
}

// Lifecycle flapping — checksum quarantine, revalidation ticks and
// forced readmission, each a clone-and-publish — races probes. A probe
// lands on whichever generation was current when it pinned, so answers
// may include or exclude the flapping views, but must never crash,
// return an invalid id, or observe a half-applied transition.
TEST_F(SnapshotStressTest, LifecycleReadmissionRacesProbes) {
  MatchingService service(&catalog_);
  AddViewRange(&service, 0, kNumViews);

  std::atomic<bool> lifecycle_done{false};
  std::thread lifecycle([&] {
    for (int round = 0; round < 12; ++round) {
      for (ViewId id = round % 3; id < 9; id += 3) {
        (void)service.ReportChecksumMismatch(id);
      }
      (void)service.RevalidationTick(
          [](const ViewDefinition&) { return true; });
      for (ViewId id = 0; id < 9; ++id) (void)service.ReadmitView(id);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    lifecycle_done.store(true);
  });
  std::vector<std::thread> probers;
  for (int t = 0; t < kNumProbers; ++t) {
    probers.emplace_back([&, t] {
      do {
        for (size_t q = t; q < queries_.size(); q += kNumProbers) {
          QueryContext ctx;
          for (const Substitute& s : service.FindSubstitutes(queries_[q], ctx)) {
            EXPECT_NE(s.view_id, kInvalidViewId);
            EXPECT_LT(s.view_id, kNumViews);
          }
        }
      } while (!lifecycle_done.load());
    });
  }
  lifecycle.join();
  for (std::thread& p : probers) p.join();

  // Settle: everything readmitted, answers equal an untouched reference.
  for (ViewId id = 0; id < 9; ++id) (void)service.ReadmitView(id);
  MatchingService reference(&catalog_);
  AddViewRange(&reference, 0, kNumViews);
  for (size_t q = 0; q < queries_.size(); ++q) {
    QueryContext ctx;
    EXPECT_EQ(Signature(service.FindSubstitutes(queries_[q], ctx)),
              Signature(reference.FindSubstitutes(queries_[q], ctx)))
        << "query " << q;
  }
}

// Generations share filter-tree nodes and catalog entries; a writer
// copies a shared path before mutating it. Probers pin an older
// generation and keep re-probing it while the writer registers views —
// near-copies of registered ones among them, whose inserts split the
// originals' tails or join their leaves — and quarantines and readmits
// views (each removal empties or shrinks a tail, or drops it and erases
// its keys). Every re-probe must answer exactly as the first did, and
// that answer must be what the brute-force §4.2 oracle admits among the
// views on the pinned tree. Under TSan, an in-place write to a shared
// node is a reported race even when the answers happen to agree.
TEST_F(SnapshotStressTest, PinnedGenerationsRaceWritersCopyingSharedPaths) {
  MatchingService service(&catalog_);
  AddViewRange(&service, 0, kInitialViews);
  // Per registered view: its twin (same keys: joins its leaf), a range-
  // constrained variant (diverges at the range level, or at the hub when
  // the new predicate pins an eliminable table), and for SPJ views one
  // with an extra output expression (diverges at the output-expression
  // level).
  std::vector<SpjgQuery> variants;
  for (int i = 0; i < kInitialViews; ++i) {
    variants.push_back(view_defs_[i]);
    SpjgQuery ranged = view_defs_[i];
    ranged.conjuncts.push_back(
        Expr::MakeCompare(CompareOp::kGt, Expr::MakeColumn(0, 0),
                          Expr::MakeLiteral(Value::Int64(7))));
    variants.push_back(std::move(ranged));
    if (!view_defs_[i].is_aggregate) {
      SpjgQuery widened = view_defs_[i];
      widened.outputs.push_back(
          {"widened", Expr::MakeArith(ArithOp::kMul, Expr::MakeColumn(0, 0),
                                      Expr::MakeLiteral(Value::Int64(2)))});
      variants.push_back(std::move(widened));
    }
  }
  std::vector<QueryDescription> queries;
  for (const SpjgQuery& q : queries_) {
    queries.push_back(DescribeQuery(catalog_, q));
  }
  for (const SpjgQuery& v : variants) {
    queries.push_back(DescribeQuery(catalog_, v));
  }

  std::atomic<int> variants_added{0};
  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    AddViewRange(&service, kInitialViews, kNumViews);
    for (size_t v = 0; v < variants.size(); ++v) {
      std::string error;
      if (service.AddView("variant" + std::to_string(v), variants[v],
                          &error) != nullptr) {
        variants_added.fetch_add(1);
      }
    }
    // Quarantine the originals and the first variants (tail removals),
    // then readmit them.
    for (int round = 0; round < 4; ++round) {
      for (ViewId id : {0, 1, 2, 3, 4, 5, kNumViews, kNumViews + 1,
                        kNumViews + 2, kNumViews + 3}) {
        (void)service.ReportChecksumMismatch(id);
        if (round % 2 == 1) (void)service.ReadmitView(id);
      }
    }
    for (ViewId id = 0; id < kNumViews + 4; ++id) (void)service.ReadmitView(id);
    writer_done.store(true);
  });
  const std::vector<FilterLevel> spj_levels = oracle::PaperSpjLevels();
  const std::vector<FilterLevel> agg_levels = oracle::PaperAggLevels();
  std::atomic<int64_t> reprobes{0};
  std::vector<std::thread> probers;
  for (int t = 0; t < kNumProbers; ++t) {
    probers.emplace_back([&] {
      do {
        MatchingService::PinnedGenerationForTest gen(service);
        const int num_views = gen->views.num_views();
        InvariantAuditor auditor;
        const uint64_t digest = auditor.TreeDigest(gen->tree);
        const std::vector<ViewId> indexed = auditor.IndexedViews(gen->tree);
        std::vector<std::vector<ViewId>> first;
        for (const QueryDescription& q : queries) {
          QueryContext ctx;
          first.push_back(gen->tree.FindCandidates(q, ctx));
          std::vector<ViewId> sorted = first.back();
          std::sort(sorted.begin(), sorted.end());
          EXPECT_EQ(sorted, oracle::Candidates(gen->views, indexed, q,
                                               spj_levels, agg_levels,
                                               /*backjoins=*/false));
        }
        for (int round = 0; round < 3; ++round) {
          for (size_t q = 0; q < queries.size(); ++q) {
            QueryContext ctx;
            EXPECT_EQ(gen->tree.FindCandidates(queries[q], ctx), first[q]);
            for (ViewId id : first[q]) {
              EXPECT_LT(id, num_views);
              EXPECT_EQ(gen->views.description(id).id, id);
              EXPECT_EQ(gen->views.FindView(gen->views.view(id).name()),
                        &gen->views.view(id));
            }
          }
          reprobes.fetch_add(1);
        }
        EXPECT_EQ(gen->views.num_views(), num_views);
        EXPECT_EQ(auditor.TreeDigest(gen->tree), digest);
      } while (!writer_done.load());
    });
  }
  writer.join();
  for (std::thread& p : probers) p.join();
  EXPECT_GT(reprobes.load(), 0);
  EXPECT_EQ(variants_added.load(), static_cast<int>(variants.size()));
  EXPECT_EQ(service.views().num_views(),
            kNumViews + static_cast<int>(variants.size()));
  const AuditReport report =
      InvariantAuditor().AuditFilterTree(service.filter_tree(), service.views());
  EXPECT_TRUE(report.ok()) << report.Summary();
}

// Stats determinism on the snapshot path: N concurrent passes must land
// on exactly N× the serial single-threaded counters — the probe-atomic
// ProbeDelta commit may not lose or double-count under the lock-free
// pinning.
TEST_F(SnapshotStressTest, ConcurrentAndSerialStatsAgreeOnSnapshotPath) {
  MatchingService::Options options;
  options.use_filter_tree = false;  // every view a candidate: large deltas
  MatchingService service(&catalog_, options);
  AddViewRange(&service, 0, kNumViews);

  constexpr int kRounds = 8;
  std::vector<std::thread> probers;
  for (int t = 0; t < kNumProbers; ++t) {
    probers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (size_t q = t; q < queries_.size(); q += kNumProbers) {
          QueryContext ctx;
          (void)service.FindSubstitutes(queries_[q], ctx);
        }
      }
    });
  }
  for (std::thread& p : probers) p.join();

  MatchingService reference(&catalog_, options);
  AddViewRange(&reference, 0, kNumViews);
  for (const SpjgQuery& q : queries_) {
    QueryContext ctx;
    (void)reference.FindSubstitutes(q, ctx);
  }
  const MatchingStats expected = reference.stats();
  const MatchingStats got = service.stats();
  EXPECT_EQ(got.invocations, expected.invocations * kRounds);
  EXPECT_EQ(got.candidates, expected.candidates * kRounds);
  EXPECT_EQ(got.full_tests, expected.full_tests * kRounds);
  EXPECT_EQ(got.substitutes, expected.substitutes * kRounds);
  EXPECT_EQ(got.match_failures, expected.match_failures * kRounds);
  EXPECT_EQ(got.budget_truncations, expected.budget_truncations * kRounds);
  EXPECT_EQ(got.quarantine_skips, expected.quarantine_skips * kRounds);
  EXPECT_EQ(got.stale_tolerated, expected.stale_tolerated * kRounds);
  for (size_t i = 0; i < got.rejects.size(); ++i) {
    EXPECT_EQ(got.rejects[i], expected.rejects[i] * kRounds) << "reason " << i;
  }
}

// Probes take no lock a writer holds. RevalidationTick runs its validate
// callback with the writer mutex held (DESIGN.md §12); a probe started
// from inside that callback, on another thread, must finish while the
// callback is still waiting for it.
TEST_F(SnapshotStressTest, ProbeCompletesWhileAWriterHoldsTheLock) {
  MatchingService service(&catalog_);
  AddViewRange(&service, 0, kNumViews);
  // Sideline one view so the next tick has a retry due: its validate
  // callback runs once, under the writer mutex.
  ASSERT_TRUE(service.ReportChecksumMismatch(0));

  std::atomic<bool> probe_done{false};
  bool finished_under_lock = false;
  std::thread prober;
  const int readmitted =
      service.RevalidationTick([&](const ViewDefinition&) {
        prober = std::thread([&] {
          QueryContext ctx;
          (void)service.FindSubstitutes(queries_[0], ctx);
          QueryContext uctx;
          (void)service.FindUnionSubstitute(queries_[0], uctx);
          probe_done.store(true);
        });
        const auto give_up =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (!probe_done.load() &&
               std::chrono::steady_clock::now() < give_up) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        finished_under_lock = probe_done.load();
        return true;
      });
  ASSERT_TRUE(prober.joinable()) << "the validate callback never ran";
  prober.join();
  EXPECT_EQ(readmitted, 1);
  EXPECT_TRUE(finished_under_lock)
      << "a probe waited for the writer mutex held by RevalidationTick";
}

// The reclamation safety property in isolation: a block reachable
// through the published pointer is never freed while any reader holds a
// pin taken before its retirement. The canary is scribbled in the
// deleter, so a premature free shows up as a poisoned read (and as
// heap-use-after-free under ASan/TSan).
TEST_F(SnapshotStressTest, NoBlockFreedWhilePinned) {
  constexpr uint64_t kMagic = 0x5afe5afe5afe5afeull;
  constexpr uint64_t kPoison = 0xdeaddeaddeaddeadull;
  struct Node {
    explicit Node(uint64_t v) : canary(v) {}
    ~Node() { canary.store(kPoison, std::memory_order_relaxed); }
    std::atomic<uint64_t> canary;
  };

  EpochDomain domain;
  std::atomic<Node*> live{new Node(kMagic)};
  std::atomic<bool> stop{false};
  std::atomic<int64_t> reads{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < kNumProbers; ++t) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        EpochPin pin(domain);
        Node* node = live.load(std::memory_order_acquire);
        EXPECT_EQ(node->canary.load(std::memory_order_relaxed), kMagic);
        reads.fetch_add(1);
      }
    });
  }
  std::thread writer([&] {
    for (int i = 0; i < 2000; ++i) {
      Node* next = new Node(kMagic);
      Node* old = live.exchange(next, std::memory_order_acq_rel);
      domain.Retire(old);
      if (i % 64 == 0) std::this_thread::yield();
    }
    stop.store(true);
  });
  writer.join();
  for (std::thread& r : readers) r.join();
  EXPECT_GT(reads.load(), 0);
  delete live.load();
  // Readers gone: the domain can drain everything still retired.
  domain.TryReclaim();
  EXPECT_EQ(domain.retired_count(), 0);
}

}  // namespace
}  // namespace mvopt
