// Pins what a filter-tree probe returns and counts, not just the set the
// §4.2 oracle admits: for every memo-group signature the view-matching
// rule probes on a §5 workload, the candidate ids in probe order and
// every FilterSearchStats field are folded into one digest per
// configuration. The constants were recorded from the predicate-walk
// search, so a faster search must reproduce its order and its counts
// exactly (DESIGN.md §17).

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "bench/harness.h"
#include "index/filter_tree.h"
#include "optimizer/optimizer.h"

namespace mvopt {
namespace {

void Fold(uint64_t* h, uint64_t v) {
  *h ^= v + 0x9e3779b97f4a7c15ULL;
  *h *= 0x100000001b3ULL;
  *h ^= *h >> 29;
}

void FoldStats(uint64_t* h, const FilterSearchStats& s) {
  Fold(h, static_cast<uint64_t>(s.lattice_nodes_visited));
  Fold(h, static_cast<uint64_t>(s.views_range_checked));
  Fold(h, static_cast<uint64_t>(s.views_range_rejected));
  Fold(h, static_cast<uint64_t>(s.subset_searches));
  Fold(h, static_cast<uint64_t>(s.superset_searches));
  Fold(h, static_cast<uint64_t>(s.scan_searches));
  for (int i = 0; i < kNumFilterLevels; ++i) {
    Fold(h, static_cast<uint64_t>(s.level_probes[i]));
    Fold(h, static_cast<uint64_t>(s.level_qualifying[i]));
  }
}

struct DigestCase {
  int views;
  uint64_t seed;
  /// Backjoin relaxation off, on, and off with a candidate cap of 3.
  uint64_t off;
  uint64_t on;
  uint64_t capped;
};

// Per-signature candidates and stats, each folded on its own, so a
// probe that drifts from the order or the counts changes the digest.
uint64_t ProbeDigest(const FilterTree& tree,
                     const std::vector<QueryDescription>& signatures,
                     int64_t candidate_cap) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const QueryDescription& q : signatures) {
    QueryContext ctx;
    if (candidate_cap > 0) ctx.EmplaceBudget().set_candidate_cap(candidate_cap);
    FilterSearchStats stats;
    const std::vector<ViewId> got = tree.FindCandidates(q, ctx, &stats);
    Fold(&h, got.size());
    for (ViewId id : got) Fold(&h, static_cast<uint64_t>(id));
    FoldStats(&h, stats);
  }
  return h;
}

class FilterProbeDigestTest : public ::testing::TestWithParam<DigestCase> {};

TEST_P(FilterProbeDigestTest, CandidatesInOrderAndStatsMatchPinnedDigests) {
  const DigestCase& c = GetParam();
  bench::Workload workload(c.views, /*num_queries=*/1000, c.seed);
  auto service = workload.MakeService(c.views, /*use_filter_tree=*/true);
  const ViewCatalog& views = service->views();
  ASSERT_EQ(views.num_views(), c.views);
  bench::RecordingSource recorder(service.get());
  Optimizer optimizer(&workload.catalog(), &recorder);
  for (const SpjgQuery& q : workload.queries()) {
    QueryContext ctx;
    (void)optimizer.Optimize(q, ctx);
  }
  std::vector<QueryDescription> signatures;
  signatures.reserve(recorder.signatures().size());
  for (const SpjgQuery& sig : recorder.signatures()) {
    signatures.push_back(DescribeQuery(workload.catalog(), sig));
  }
  ASSERT_GT(signatures.size(), 1000u);

  FilterTree plain;
  FilterTree relaxed;
  relaxed.set_assume_backjoins(true);
  for (ViewId id = 0; id < views.num_views(); ++id) {
    plain.AddView(views.description(id));
    relaxed.AddView(views.description(id));
  }
  EXPECT_EQ(ProbeDigest(plain, signatures, 0), c.off)
      << "backjoins off, " << signatures.size() << " signatures";
  EXPECT_EQ(ProbeDigest(relaxed, signatures, 0), c.on) << "backjoins on";
  EXPECT_EQ(ProbeDigest(plain, signatures, 3), c.capped) << "capped at 3";
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, FilterProbeDigestTest,
    ::testing::Values(DigestCase{1000, 1, 16752514302313422359ULL,
                                 12907044576395163317ULL,
                                 7972240651546194006ULL},
                      DigestCase{1000, 17, 1266018450688182950ULL,
                                 1570710668440308828ULL,
                                 9633470712326881069ULL},
                      DigestCase{10000, 1, 18218080044864563934ULL,
                                 16887419346084610851ULL,
                                 3848725579647851708ULL}),
    [](const ::testing::TestParamInfo<DigestCase>& info) {
      return std::to_string(info.param.views) + "views_seed" +
             std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace mvopt
