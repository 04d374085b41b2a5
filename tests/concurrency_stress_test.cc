// Multi-threaded stress for the MatchingService concurrency model:
// FindSubstitutes (and whole optimizations) from several threads while
// AddView proceeds, with the final concurrent answers cross-checked
// against a single-threaded reference service. Run under
// MVOPT_SANITIZE=thread in CI.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "engine/maintenance.h"
#include "index/matching_service.h"
#include "optimizer/optimizer.h"
#include "rewrite/catalog_store.h"
#include "rewrite/view_lifecycle.h"
#include "shard/sharded_catalog_service.h"
#include "tpch/datagen.h"
#include "tpch/schema.h"
#include "tpch/workload.h"
#include "verify/invariant_auditor.h"

namespace mvopt {
namespace {

constexpr int kNumViews = 80;
constexpr int kInitialViews = 30;
constexpr int kNumQueries = 30;
constexpr int kNumReaders = 4;

class ConcurrencyStressTest : public ::testing::Test {
 protected:
  ConcurrencyStressTest() : schema_(tpch::BuildSchema(&catalog_, 0.5)) {
    tpch::WorkloadGenerator view_gen(&catalog_, 9);
    for (int i = 0; i < kNumViews; ++i) {
      view_defs_.push_back(view_gen.GenerateView());
    }
    tpch::WorkloadGenerator query_gen(&catalog_, 9 + 77777);
    for (int i = 0; i < kNumQueries; ++i) {
      queries_.push_back(query_gen.GenerateQuery());
    }
  }

  void AddViewRange(MatchingService* service, int begin, int end) {
    for (int i = begin; i < end; ++i) {
      std::string error;
      ASSERT_NE(service->AddView("v" + std::to_string(i), view_defs_[i],
                                 &error),
                nullptr)
          << error;
    }
  }

  /// Sorted substituted view ids per query — the cross-check signature.
  std::vector<ViewId> Signature(MatchingService* service,
                                const SpjgQuery& query) {
    QueryContext ctx;
    std::vector<ViewId> ids;
    for (const Substitute& s : service->FindSubstitutes(query, ctx)) {
      ids.push_back(s.view_id);
    }
    std::sort(ids.begin(), ids.end());
    return ids;
  }

  std::vector<std::vector<ViewId>> ReferenceSignatures() {
    MatchingService reference(&catalog_);
    AddViewRange(&reference, 0, kNumViews);
    std::vector<std::vector<ViewId>> out;
    for (const SpjgQuery& q : queries_) {
      out.push_back(Signature(&reference, q));
    }
    return out;
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
  std::vector<SpjgQuery> queries_;
};

TEST_F(ConcurrencyStressTest, ProbesDuringAddViewMatchFinalReference) {
  MatchingService service(&catalog_);
  AddViewRange(&service, 0, kInitialViews);

  // Phase 1: one writer registers the remaining views while reader
  // threads hammer every query. Each probe must complete against a
  // consistent snapshot — no crash, no torn candidate set. Readers run
  // a bounded number of rounds and pause between them, so the writer's
  // registrations interleave with the probes.
  std::atomic<int64_t> probes{0};
  std::thread writer([&] {
    AddViewRange(&service, kInitialViews, kNumViews);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < kNumReaders; ++t) {
    readers.emplace_back([&, t] {
      for (int round = 0; round < 12; ++round) {
        for (size_t q = t; q < queries_.size(); q += kNumReaders) {
          QueryContext ctx;
          std::vector<Substitute> subs =
              service.FindSubstitutes(queries_[q], ctx);
          for (const Substitute& s : subs) {
            EXPECT_NE(s.view_id, kInvalidViewId);
          }
          probes.fetch_add(1);
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }
  writer.join();
  for (std::thread& r : readers) r.join();
  EXPECT_GT(probes.load(), 0);
  EXPECT_EQ(service.views().num_views(), kNumViews);
  ExpectAuditGreen(service);

  // Phase 2: with the catalog quiescent, concurrent probe answers must
  // equal the single-threaded reference exactly.
  std::vector<std::vector<ViewId>> expected = ReferenceSignatures();
  std::vector<std::vector<ViewId>> actual(queries_.size());
  std::vector<std::thread> checkers;
  for (int t = 0; t < kNumReaders; ++t) {
    checkers.emplace_back([&, t] {
      for (size_t q = t; q < queries_.size(); q += kNumReaders) {
        actual[q] = Signature(&service, queries_[q]);
      }
    });
  }
  for (std::thread& c : checkers) c.join();
  for (size_t q = 0; q < queries_.size(); ++q) {
    EXPECT_EQ(actual[q], expected[q]) << "query " << q;
  }
}

// Costing races registration: three threads optimize the query set —
// pricing every substitute from its view's estimate shape, reached
// through ResolveView — while a writer registers 200 more views, first
// against one MatchingService and then against a 4-shard
// ShardedCatalogService. Once the writer is done, every thread's plans
// must equal a single-thread reference over the final catalog.
TEST_F(ConcurrencyStressTest, CostingRacesRegistration) {
  constexpr int kBaseViews = 40;
  constexpr int kAddedViews = 200;
  constexpr int kOptimizers = 3;
  std::vector<SpjgQuery> defs;
  tpch::WorkloadGenerator view_gen(&catalog_, 23);
  for (int i = 0; i < kBaseViews + kAddedViews; ++i) {
    defs.push_back(view_gen.GenerateView());
  }
  auto plan_texts = [&](Optimizer& optimizer) {
    std::vector<std::string> out;
    for (const SpjgQuery& q : queries_) {
      QueryContext ctx;
      out.push_back(optimizer.Optimize(q, ctx).plan->ToString(catalog_));
    }
    return out;
  };

  // `add(i)` registers view i on the service under test.
  auto race = [&](SubstituteSource* service,
                  const std::function<void(int)>& add,
                  const std::vector<std::string>& expected) {
    for (int i = 0; i < kBaseViews; ++i) add(i);
    Optimizer optimizer(&catalog_, service);
    std::atomic<bool> writer_done{false};
    std::atomic<int64_t> optimized{0};
    std::thread writer([&] {
      for (int i = kBaseViews; i < kBaseViews + kAddedViews; ++i) add(i);
      writer_done.store(true);
    });
    std::vector<std::vector<std::string>> final_plans(kOptimizers);
    std::vector<std::thread> optimizers;
    for (int t = 0; t < kOptimizers; ++t) {
      optimizers.emplace_back([&, t] {
        do {
          for (size_t q = t; q < queries_.size(); q += kOptimizers) {
            QueryContext ctx;
            OptimizationResult r = optimizer.Optimize(queries_[q], ctx);
            EXPECT_NE(r.plan, nullptr);
            optimized.fetch_add(1);
          }
        } while (!writer_done.load());
        final_plans[t] = plan_texts(optimizer);
      });
    }
    writer.join();
    for (std::thread& t : optimizers) t.join();
    EXPECT_GT(optimized.load(), 0);
    for (int t = 0; t < kOptimizers; ++t) {
      ASSERT_EQ(final_plans[t].size(), expected.size());
      for (size_t q = 0; q < expected.size(); ++q) {
        EXPECT_EQ(final_plans[t][q], expected[q])
            << "thread " << t << " query " << q;
      }
    }
  };

  {
    SCOPED_TRACE("MatchingService");
    auto add_to = [&](MatchingService* service, int i) {
      std::string error;
      ASSERT_NE(service->AddView("v" + std::to_string(i), defs[i], &error),
                nullptr)
          << error;
    };
    MatchingService reference(&catalog_);
    for (int i = 0; i < kBaseViews + kAddedViews; ++i) add_to(&reference, i);
    Optimizer reference_optimizer(&catalog_, &reference);
    const std::vector<std::string> expected = plan_texts(reference_optimizer);
    MatchingService service(&catalog_);
    race(&service, [&](int i) { add_to(&service, i); }, expected);
  }
  {
    SCOPED_TRACE("ShardedCatalogService");
    ShardedCatalogOptions options;
    options.num_shards = 4;
    auto add_to = [&](ShardedCatalogService* service, int i) {
      std::string error;
      ASSERT_NE(service->AddView("v" + std::to_string(i), defs[i], &error),
                kInvalidViewId)
          << error;
    };
    ShardedCatalogService reference(&catalog_, options);
    for (int i = 0; i < kBaseViews + kAddedViews; ++i) add_to(&reference, i);
    Optimizer reference_optimizer(&catalog_, &reference);
    const std::vector<std::string> expected = plan_texts(reference_optimizer);
    ShardedCatalogService service(&catalog_, options);
    race(&service, [&](int i) { add_to(&service, i); }, expected);
  }
}

TEST_F(ConcurrencyStressTest, DeadlinesStayIsolatedPerQuery) {
  // Some probers run with an already-expired deadline, others ungoverned,
  // all against one service: the expired ones must come back empty and
  // exhausted, the ungoverned ones must still get full answers — one
  // query's deadline must never poison another's budget.
  MatchingService service(&catalog_);
  AddViewRange(&service, 0, kNumViews);
  std::vector<std::vector<ViewId>> expected = ReferenceSignatures();

  std::vector<std::thread> threads;
  for (int t = 0; t < kNumReaders; ++t) {
    const bool expired = (t % 2 == 0);
    threads.emplace_back([&, t, expired] {
      for (int round = 0; round < 6; ++round) {
        for (size_t q = t; q < queries_.size(); q += kNumReaders) {
          if (!expired) {
            EXPECT_EQ(Signature(&service, queries_[q]), expected[q])
                << "query " << q;
            continue;
          }
          QueryContext ctx;
          ctx.EmplaceBudget().set_deadline(QueryBudget::Clock::now() -
                                           std::chrono::milliseconds(1));
          EXPECT_TRUE(service.FindSubstitutes(queries_[q], ctx).empty());
          EXPECT_TRUE(ctx.exhausted());
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

TEST_F(ConcurrencyStressTest, InterleavedWritersKeepTheCatalogConsistent) {
  MatchingService service(&catalog_);
  // Two writers register disjoint name ranges; ids interleave freely but
  // every registration must land exactly once and audit green.
  std::thread w1([&] {
    for (int i = 0; i < kNumViews / 2; ++i) {
      std::string error;
      ASSERT_NE(service.AddView("a" + std::to_string(i), view_defs_[i],
                                &error),
                nullptr)
          << error;
    }
  });
  std::thread w2([&] {
    for (int i = kNumViews / 2; i < kNumViews; ++i) {
      std::string error;
      ASSERT_NE(service.AddView("b" + std::to_string(i), view_defs_[i],
                                &error),
                nullptr)
          << error;
    }
  });
  w1.join();
  w2.join();
  EXPECT_EQ(service.views().num_views(), kNumViews);
  for (int i = 0; i < kNumViews / 2; ++i) {
    EXPECT_NE(service.views().FindView("a" + std::to_string(i)), nullptr);
  }
  for (int i = kNumViews / 2; i < kNumViews; ++i) {
    EXPECT_NE(service.views().FindView("b" + std::to_string(i)), nullptr);
  }
  ExpectAuditGreen(service);
}

#ifdef MVOPT_FAILPOINTS

TEST_F(ConcurrencyStressTest, InjectedMatcherFaultsStayIsolatedUnderLoad) {
  MatchingService service(&catalog_);
  AddViewRange(&service, 0, kNumViews);
  // A fifth of all matcher runs throw, from every thread at once; the
  // probes must survive and the fault counter must account for them.
  FailpointConfig cfg;
  cfg.count = -1;
  cfg.probability = 0.2;
  cfg.seed = 2024;
  FailpointRegistry::Instance().Enable("matcher.match", cfg);
  std::vector<std::thread> readers;
  for (int t = 0; t < kNumReaders; ++t) {
    readers.emplace_back([&] {
      for (int round = 0; round < 3; ++round) {
        for (const SpjgQuery& q : queries_) {
          QueryContext ctx;
          EXPECT_NO_THROW((void)service.FindSubstitutes(q, ctx));
        }
      }
    });
  }
  for (std::thread& r : readers) r.join();
  FailpointRegistry::Instance().DisableAll();
  EXPECT_GT(service.stats().match_failures, 0);
  // Clean probes afterwards still match the single-threaded reference.
  std::vector<std::vector<ViewId>> expected = ReferenceSignatures();
  for (size_t q = 0; q < queries_.size(); ++q) {
    EXPECT_EQ(Signature(&service, queries_[q]), expected[q]) << "query " << q;
  }
}

#endif  // MVOPT_FAILPOINTS

TEST_F(ConcurrencyStressTest, StatsSnapshotsNeverTearUnderConcurrentProbes) {
  // Regression for the stats-snapshot tearing bug: stats() used to read
  // eight independent atomics one by one, so a snapshot could observe a
  // probe's full_tests but not its candidates. Probes now commit their
  // whole delta at once, so every snapshot — taken mid-flight — must
  // satisfy the cross-field probe invariants.
  MatchingService service(&catalog_);
  AddViewRange(&service, 0, kNumViews);

  std::atomic<bool> stop{false};
  std::atomic<int64_t> probes{0};
  constexpr int kRounds = 12;
  std::vector<std::thread> readers;
  for (int t = 0; t < kNumReaders; ++t) {
    readers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (size_t q = t; q < queries_.size(); q += kNumReaders) {
          QueryContext ctx;
          (void)service.FindSubstitutes(queries_[q], ctx);
          probes.fetch_add(1);
        }
      }
    });
  }
  std::thread observer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      MatchingStats s = service.stats();
      EXPECT_LE(s.full_tests, s.candidates);
      EXPECT_LE(s.substitutes, s.full_tests);
      EXPECT_LE(s.quarantine_skips + s.full_tests, s.candidates);
      EXPECT_GE(s.invocations, 0);
      for (int64_t r : s.rejects) EXPECT_GE(r, 0);
      std::this_thread::yield();
    }
  });
  for (std::thread& r : readers) r.join();
  stop.store(true);
  observer.join();

  // With the system quiescent the totals are deterministic: every reader
  // round re-ran the full query set, so the service's stats must equal
  // kRounds * (one serial pass) — nothing lost, nothing double-counted.
  MatchingService reference(&catalog_);
  AddViewRange(&reference, 0, kNumViews);
  for (const SpjgQuery& q : queries_) {
    QueryContext ctx;
    (void)reference.FindSubstitutes(q, ctx);
  }
  const MatchingStats expected = reference.stats();
  const MatchingStats got = service.stats();
  EXPECT_EQ(got.invocations, probes.load());
  EXPECT_EQ(got.invocations, expected.invocations * kRounds);
  EXPECT_EQ(got.candidates, expected.candidates * kRounds);
  EXPECT_EQ(got.full_tests, expected.full_tests * kRounds);
  EXPECT_EQ(got.substitutes, expected.substitutes * kRounds);
  for (size_t i = 0; i < got.rejects.size(); ++i) {
    EXPECT_EQ(got.rejects[i], expected.rejects[i] * kRounds) << "reason " << i;
  }
}

TEST_F(ConcurrencyStressTest, ConcurrentResetsLoseNoProbes) {
  // Regression for the reset race: ResetStats() returns the pre-reset
  // snapshot atomically, so snapshots harvested by a racing resetter
  // plus the final stats() must account for every probe exactly once —
  // even with resets landing mid-burst from two threads.
  MatchingService service(&catalog_);
  AddViewRange(&service, 0, kNumViews);

  std::atomic<bool> stop{false};
  std::atomic<int64_t> probes{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kNumReaders; ++t) {
    readers.emplace_back([&, t] {
      for (int round = 0; round < 12; ++round) {
        for (size_t q = t; q < queries_.size(); q += kNumReaders) {
          QueryContext ctx;
          (void)service.FindSubstitutes(queries_[q], ctx);
          probes.fetch_add(1);
        }
      }
    });
  }
  std::mutex harvest_mu;
  MatchingStats harvested;
  std::vector<std::thread> resetters;
  for (int t = 0; t < 2; ++t) {
    resetters.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        MatchingStats s = service.ResetStats();
        EXPECT_LE(s.full_tests, s.candidates);
        EXPECT_LE(s.substitutes, s.full_tests);
        std::lock_guard<std::mutex> lock(harvest_mu);
        harvested.MergeFrom(s);
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    });
  }
  for (std::thread& r : readers) r.join();
  stop.store(true);
  for (std::thread& r : resetters) r.join();
  harvested.MergeFrom(service.ResetStats());
  EXPECT_EQ(harvested.invocations, probes.load());

  MatchingService reference(&catalog_);
  AddViewRange(&reference, 0, kNumViews);
  for (const SpjgQuery& q : queries_) {
    QueryContext ctx;
    (void)reference.FindSubstitutes(q, ctx);
  }
  const MatchingStats expected = reference.stats();
  EXPECT_EQ(harvested.candidates, expected.candidates * 12);
  EXPECT_EQ(harvested.full_tests, expected.full_tests * 12);
  EXPECT_EQ(harvested.substitutes, expected.substitutes * 12);
}

TEST_F(ConcurrencyStressTest, RegistryCountersMatchStatsAfterConcurrentLoad) {
  // The registry mirror is updated outside the stats mutex with relaxed
  // atomics; once quiescent it must agree exactly with the probe-atomic
  // stats — no increment lost on any thread.
  MetricsRegistry registry;
  MatchingService::Options opts;
  opts.observe.mode = ObserveMode::kCountersOnly;
  opts.observe.registry = &registry;
  MatchingService service(&catalog_, opts);
  AddViewRange(&service, 0, kNumViews);

  std::vector<std::thread> readers;
  for (int t = 0; t < kNumReaders; ++t) {
    readers.emplace_back([&, t] {
      for (int round = 0; round < 6; ++round) {
        for (size_t q = t; q < queries_.size(); q += kNumReaders) {
          QueryContext ctx;
          (void)service.FindSubstitutes(queries_[q], ctx);
        }
      }
    });
  }
  for (std::thread& r : readers) r.join();

  const MatchingStats s = service.stats();
  EXPECT_EQ(registry.CounterValue("mvopt_probe_invocations_total"),
            s.invocations);
  EXPECT_EQ(registry.CounterValue("mvopt_probe_candidates_total"),
            s.candidates);
  EXPECT_EQ(registry.CounterValue("mvopt_probe_full_tests_total"),
            s.full_tests);
  EXPECT_EQ(registry.CounterValue("mvopt_probe_substitutes_total"),
            s.substitutes);
  int64_t rejects = 0;
  for (int64_t r : s.rejects) rejects += r;
  EXPECT_EQ(registry.SumFamily("mvopt_match_rejects_total"), rejects);
  std::string error;
  EXPECT_TRUE(ValidatePrometheusText(registry.WritePrometheus(), &error))
      << error;
}

TEST_F(ConcurrencyStressTest, QuarantineReadmissionUnderConcurrentProbes) {
  MatchingService service(&catalog_);
  AddViewRange(&service, 0, kNumViews);
  std::vector<std::vector<ViewId>> expected = ReferenceSignatures();

  // One lifecycle thread repeatedly trips the circuit breaker on a block
  // of views (removing them from the filter tree) and then revalidates
  // them back in, while readers hammer every query. Probes must stay
  // crash-free and internally consistent throughout: a sidelined view
  // never substitutes, and re-admitted views substitute again.
  std::atomic<bool> stop{false};
  std::thread lifecycle([&] {
    auto always_valid = [](const ViewDefinition&) { return true; };
    for (int round = 0; round < 25; ++round) {
      for (ViewId id = 0; id < 10; ++id) {
        service.ReportChecksumMismatch(id);
      }
      while (service.lifecycle().num_sidelined() > 0) {
        service.RevalidationTick(always_valid);
      }
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < kNumReaders; ++t) {
    readers.emplace_back([&, t] {
      while (!stop.load()) {
        for (size_t q = t; q < queries_.size(); q += kNumReaders) {
          QueryContext ctx;
          std::vector<Substitute> subs =
              service.FindSubstitutes(queries_[q], ctx);
          // Note: no IsQuarantined check here — a view may be sidelined
          // between the probe and the assertion; only the quiescent
          // cross-check below is race-free.
          for (const Substitute& s : subs) {
            EXPECT_NE(s.view_id, kInvalidViewId);
          }
        }
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    });
  }
  lifecycle.join();
  for (std::thread& r : readers) r.join();

  // Every view readmitted: the filter tree must be fully repopulated and
  // quiescent probes must match the untouched reference exactly — the
  // re-admission path re-inserted each view correctly.
  EXPECT_EQ(service.lifecycle().num_sidelined(), 0);
  ExpectAuditGreen(service);
  for (size_t q = 0; q < queries_.size(); ++q) {
    EXPECT_EQ(Signature(&service, queries_[q]), expected[q]) << "query " << q;
  }
}

TEST_F(ConcurrencyStressTest, VerifyModeFlipsNeverTearProbeAccounting) {
  // Regression for the verify-mode race: set_verify_mode used to write a
  // plain options field that in-flight probes read without any lock. The
  // mode is now an atomic snapshotted once per probe, so flipping it
  // mid-load can neither tear nor split one probe's verify accounting
  // across two modes: checked == proven + rejected holds in every
  // mid-flight snapshot, not just at quiescence.
  MatchingService::Options opts;
  opts.verify_mode = VerifyMode::kLog;
  MatchingService service(&catalog_, opts);
  AddViewRange(&service, 0, kNumViews);

  std::atomic<bool> stop{false};
  std::thread toggler([&] {
    static constexpr VerifyMode kModes[] = {VerifyMode::kOff, VerifyMode::kLog,
                                            VerifyMode::kEnforce};
    int i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      service.set_verify_mode(kModes[i++ % 3]);
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  });
  std::thread observer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      VerifyStats v = service.verify_stats();
      EXPECT_EQ(v.checked, v.proven + v.rejected);
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < kNumReaders; ++t) {
    readers.emplace_back([&, t] {
      for (int round = 0; round < 12; ++round) {
        for (size_t q = t; q < queries_.size(); q += kNumReaders) {
          QueryContext ctx;
          (void)service.FindSubstitutes(queries_[q], ctx);
        }
      }
    });
  }
  for (std::thread& r : readers) r.join();
  stop.store(true);
  toggler.join();
  observer.join();
  const VerifyStats v = service.verify_stats();
  EXPECT_EQ(v.checked, v.proven + v.rejected);

  // Pinned back to enforce, quiescent answers must equal a service that
  // ran enforce from birth — the flips left no residue.
  service.set_verify_mode(VerifyMode::kEnforce);
  MatchingService::Options ref_opts;
  ref_opts.verify_mode = VerifyMode::kEnforce;
  MatchingService reference(&catalog_, ref_opts);
  AddViewRange(&reference, 0, kNumViews);
  for (size_t q = 0; q < queries_.size(); ++q) {
    EXPECT_EQ(Signature(&service, queries_[q]),
              Signature(&reference, queries_[q]))
        << "query " << q;
  }
}

TEST_F(ConcurrencyStressTest, LifecycleGrowthNeverBreaksLockFreeReaders) {
  // Regression for the registry growth race: EnsureSize used to grow the
  // entry container while lock-free readers (probe gating, maintenance
  // refresh) walked it — undefined behavior on growth. The chunked
  // registry publishes fully constructed chunks with release stores and
  // the size last, so a reader racing growth sees either "absent"
  // (default answer) or a complete entry, never a partial one.
  ViewLifecycleRegistry registry;
  constexpr int kMaxId = 4096;  // crosses several chunk boundaries
  std::atomic<bool> done{false};
  std::thread grower([&] {
    for (int n = 1; n <= kMaxId; n += 37) registry.EnsureSize(n);
    registry.EnsureSize(kMaxId);
    done.store(true, std::memory_order_release);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < kNumReaders; ++t) {
    readers.emplace_back([&, t] {
      uint64_t epoch = 1;
      while (!done.load(std::memory_order_acquire)) {
        const size_t size = registry.size();
        for (ViewId id = t; static_cast<size_t>(id) < size;
             id += kNumReaders) {
          const ViewState s = registry.state(id);
          EXPECT_NE(ViewStateName(s)[0], '?');
          registry.MarkFresh(id, epoch);
          registry.SetChecksum(id, 0xabc0 + static_cast<uint64_t>(id));
        }
        // Past-the-end ids answer with defaults, never a crash.
        EXPECT_EQ(registry.state(static_cast<ViewId>(size + 10)),
                  ViewState::kFresh);
        ++epoch;
      }
    });
  }
  grower.join();
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(registry.size(), static_cast<size_t>(kMaxId));
  EXPECT_EQ(registry.CountState(ViewState::kFresh), kMaxId);
}

TEST_F(ConcurrencyStressTest, MaintenancePassesSerializeAcrossThreads) {
  // Regression for unserialized maintenance: Insert/Delete/Validate used
  // to mutate the maintainer's bookkeeping and the Database with no lock
  // at all, so a loader thread racing a revalidation thread could
  // interleave half-applied deltas. Passes now serialize on the
  // maintainer's internal mutex: every Validate — including those issued
  // mid-load — sees a (table, view) pair from between passes.
  Database db(&catalog_);
  tpch::DataGenOptions dg;
  dg.scale_factor = 0.0005;
  tpch::GenerateData(&db, schema_, dg);
  ViewMaintainer maintainer(&db);

  SpjgBuilder b(&catalog_);
  int l = b.AddTable("lineitem");
  b.Output(b.Col(l, "l_suppkey"));
  b.Output(Expr::MakeAggregate(AggKind::kCountStar, nullptr), "cnt");
  b.Output(Expr::MakeAggregate(AggKind::kSum, b.Col(l, "l_quantity")),
           "sumq");
  b.GroupBy(b.Col(l, "l_suppkey"));
  SpjgQuery def = b.Build();
  ASSERT_FALSE(ViewDefinition::Validate(def).has_value());
  ViewDefinition view(0, "stress_agg", std::move(def));
  db.MaterializeView(&view);
  maintainer.RegisterView(&view);

  auto make_lineitem = [](int64_t linenumber, int64_t quantity) -> Row {
    return {Value::Int64(1),          Value::Int64(1),
            Value::Int64(1),          Value::Int64(linenumber),
            Value::Int64(quantity),   Value::Double(quantity * 1000.0),
            Value::Double(0.05),      Value::Double(0.02),
            Value::String("N"),       Value::String("O"),
            Value::Date(9000),        Value::Date(9010),
            Value::Date(9020),        Value::String("NONE"),
            Value::String("AIR"),     Value::String("stress row")};
  };

  constexpr int kLoaders = 3;
  constexpr int kOpsPerThread = 8;
  std::vector<std::thread> loaders;
  for (int t = 0; t < kLoaders; ++t) {
    loaders.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        maintainer.Insert(
            schema_.lineitem,
            {make_lineitem(1000 + t * kOpsPerThread + i, 10 + i)});
      }
    });
  }
  std::thread validator([&] {
    for (int i = 0; i < 20; ++i) {
      EXPECT_TRUE(maintainer.Validate(view));
      std::this_thread::yield();
    }
  });
  for (std::thread& r : loaders) r.join();
  validator.join();
  EXPECT_TRUE(maintainer.Validate(view));
  // Every pass landed exactly once (aggregate inserts are incremental).
  EXPECT_EQ(maintainer.incremental_updates(), kLoaders * kOpsPerThread);
  EXPECT_EQ(maintainer.full_recomputations(), 0);
}

TEST_F(ConcurrencyStressTest, StorePollersStaySafeDuringConcurrentAppends) {
  // Regression for the unguarded store fields: wal_bytes()/is_open()
  // used to read state the append path mutated, relying on the owning
  // service's lock that poller threads never held. The store now
  // serializes internally, so polling mid-append is safe and wal_bytes
  // is monotone.
  char tmpl[] = "/tmp/mvopt_stress_store_XXXXXX";
  std::string dir = ::mkdtemp(tmpl);
  {
    CatalogStore store(dir);
    store.OpenForAppend();
    std::atomic<bool> stop{false};
    std::thread poller([&] {
      int64_t last = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        EXPECT_TRUE(store.is_open());
        const int64_t bytes = store.wal_bytes();
        EXPECT_GE(bytes, last);
        last = bytes;
        std::this_thread::yield();
      }
    });
    constexpr int kAppenders = 2;
    constexpr int kAppendsPerThread = 40;
    std::vector<std::thread> appenders;
    for (int t = 0; t < kAppenders; ++t) {
      appenders.emplace_back([&, t] {
        for (int i = 0; i < kAppendsPerThread; ++i) {
          PersistedView v;
          v.name = "w" + std::to_string(t) + "_" + std::to_string(i);
          v.sql = "SELECT l_orderkey FROM lineitem";
          store.AppendAddView(v);
        }
      });
    }
    for (std::thread& a : appenders) a.join();
    stop.store(true);
    poller.join();
    CatalogStore::RecoveredState state = store.Recover();
    EXPECT_TRUE(state.report.clean()) << state.report.ToJson();
    EXPECT_EQ(state.views.size(),
              static_cast<size_t>(kAppenders * kAppendsPerThread));
  }
  const std::string cmd = "rm -rf " + dir;
  (void)::system(cmd.c_str());
}

}  // namespace
}  // namespace mvopt
