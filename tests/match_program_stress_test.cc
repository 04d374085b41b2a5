// Multi-threaded stress for the two-tier matching core: compiled probes
// race AddView (which clones the catalog, compiles a fresh program and
// republishes the snapshot) while another thread flips the cross-check
// mode at runtime. Run under MVOPT_SANITIZE=thread in CI — the point is
// that programs are immutable after publication, the shared
// MatchProbeContext is read-only, and scratch state is thread-local, so
// TSan must stay silent and enforce-mode must never find a mismatch.

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/query_context.h"
#include "index/matching_service.h"
#include "rewrite/match_program.h"
#include "tpch/schema.h"
#include "tpch/workload.h"

namespace mvopt {
namespace {

constexpr int kNumViews = 60;
constexpr int kInitialViews = 20;
constexpr int kNumQueries = 24;
constexpr int kNumReaders = 4;

class MatchProgramStressTest : public ::testing::Test {
 protected:
  MatchProgramStressTest() : schema_(tpch::BuildSchema(&catalog_, 0.5)) {
    tpch::WorkloadGenerator view_gen(&catalog_, 41);
    for (int i = 0; i < kNumViews; ++i) {
      view_defs_.push_back(view_gen.GenerateView());
    }
    tpch::WorkloadGenerator query_gen(&catalog_, 41 + 77777);
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

  Catalog catalog_;
  tpch::Schema schema_;
  std::vector<SpjgQuery> view_defs_;
  std::vector<SpjgQuery> queries_;
};

TEST_F(MatchProgramStressTest, CompiledProbesRaceRegistrationUnderEnforce) {
  MatchingService::Options opts;
  opts.cross_check = MatchCrossCheck::kEnforce;
  opts.use_filter_tree = false;  // every view is a candidate: max contention
  MatchingService service(&catalog_, opts);
  AddViewRange(&service, 0, kInitialViews);

  // One writer registers (and compiles) the remaining views; readers
  // hammer every query through whatever snapshot they pin; a mode
  // flipper toggles the cross-check atomically the whole time.
  std::atomic<int64_t> probes{0};
  std::atomic<bool> done{false};
  std::thread writer([&] {
    AddViewRange(&service, kInitialViews, kNumViews);
    done.store(true);
  });
  std::thread flipper([&] {
    int round = 0;
    while (!done.load()) {
      service.set_cross_check(round % 2 == 0 ? MatchCrossCheck::kLog
                                             : MatchCrossCheck::kEnforce);
      ++round;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    service.set_cross_check(MatchCrossCheck::kEnforce);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < kNumReaders; ++t) {
    readers.emplace_back([&, t] {
      for (int round = 0; round < 10; ++round) {
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
  flipper.join();
  for (std::thread& r : readers) r.join();

  EXPECT_GT(probes.load(), 0);
  EXPECT_EQ(service.views().num_views(), kNumViews);
  MatchingStats stats = service.stats();
  // Tier accounting holds across every concurrent probe, the compiled
  // tier actually fired, and the oracle never disagreed with a program.
  EXPECT_EQ(stats.compiled_hits + stats.compiled_fallbacks, stats.full_tests);
  EXPECT_GT(stats.compiled_hits, 0);
  EXPECT_EQ(stats.cross_check_mismatches, 0);
  for (ViewId v = 0; v < service.views().num_views(); ++v) {
    EXPECT_FALSE(service.IsQuarantined(v)) << "view " << v;
  }

  // Quiescent replay: with registration finished, every query's answers
  // under enforce equal a fresh single-threaded reference service's.
  MatchingService reference(&catalog_, opts);
  AddViewRange(&reference, 0, kNumViews);
  for (const SpjgQuery& q : queries_) {
    QueryContext ctx;
    std::vector<ViewId> got, want;
    for (const Substitute& s : service.FindSubstitutes(q, ctx)) {
      got.push_back(s.view_id);
    }
    for (const Substitute& s : reference.FindSubstitutes(q, ctx)) {
      want.push_back(s.view_id);
    }
    EXPECT_EQ(got, want);
  }
}

TEST_F(MatchProgramStressTest, ParallelPipelineAgreesWithSerialAcrossTiers) {
  // Compiled probes running in parallel threads (each probe keeps its
  // own match scratch) must agree exactly with a serial generic-tier
  // service, with enforce-mode cross-check replaying every compiled
  // verdict against the oracle.
  auto probe_ids = [](MatchingService& service, const SpjgQuery& q) {
    QueryContext ctx;
    std::vector<ViewId> ids;
    for (const Substitute& s : service.FindSubstitutes(q, ctx)) {
      ids.push_back(s.view_id);
    }
    return ids;
  };
  std::vector<std::vector<ViewId>> expected;
  {
    MatchingService::Options serial;
    serial.compile_match_programs = false;
    serial.use_filter_tree = false;
    MatchingService service(&catalog_, serial);
    AddViewRange(&service, 0, kNumViews);
    for (const SpjgQuery& q : queries_) {
      expected.push_back(probe_ids(service, q));
    }
  }
  MatchingService::Options opts;
  opts.cross_check = MatchCrossCheck::kEnforce;
  opts.use_filter_tree = false;
  MatchingService service(&catalog_, opts);
  AddViewRange(&service, 0, kNumViews);
  std::vector<std::vector<ViewId>> actual(queries_.size());
  std::vector<std::thread> readers;
  for (int t = 0; t < kNumReaders; ++t) {
    readers.emplace_back([&, t] {
      for (size_t q = t; q < queries_.size(); q += kNumReaders) {
        actual[q] = probe_ids(service, queries_[q]);
      }
    });
  }
  for (std::thread& r : readers) r.join();
  for (size_t q = 0; q < queries_.size(); ++q) {
    EXPECT_EQ(actual[q], expected[q]) << "query " << q;
  }
  MatchingStats stats = service.stats();
  EXPECT_EQ(stats.compiled_hits + stats.compiled_fallbacks, stats.full_tests);
  EXPECT_GT(stats.compiled_hits, 0);
  EXPECT_EQ(stats.cross_check_mismatches, 0);
}

}  // namespace
}  // namespace mvopt
