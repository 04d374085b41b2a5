// Ablation A1: lattice index search vs. linear key scan (§4: "We can
// always do a linear scan and check every key but this may be slow if the
// node contains many keys"). Measures subset and superset searches over
// key populations of increasing size, plus insertion cost.

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "index/lattice.h"

namespace mvopt {
namespace {

// Keys shaped like view source-table sets: small subsets of a bounded
// atom universe (8 TPC-H tables -> up to ~30 atoms with columns mixed in).
std::vector<LatticeIndex::Key> MakeKeys(int count, int universe,
                                        uint64_t seed) {
  Rng rng(seed);
  std::vector<LatticeIndex::Key> keys;
  for (int i = 0; i < count; ++i) {
    LatticeIndex::Key k;
    int len = static_cast<int>(rng.Uniform(1, 6));
    for (int j = 0; j < len; ++j) {
      k.push_back(static_cast<uint32_t>(rng.Uniform(0, universe - 1)));
    }
    std::sort(k.begin(), k.end());
    k.erase(std::unique(k.begin(), k.end()), k.end());
    keys.push_back(std::move(k));
  }
  return keys;
}

void BM_LatticeSubsetSearch(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto keys = MakeKeys(n, 24, 7);
  LatticeIndex index;
  for (const auto& k : keys) index.Insert(k);
  auto probes = MakeKeys(64, 24, 99);
  size_t i = 0;
  for (auto _ : state) {
    std::vector<int> out;
    index.SearchSubsets(probes[i++ % probes.size()], &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LatticeSubsetSearch)->Arg(32)->Arg(128)->Arg(512)->Arg(2048);

void BM_LinearSubsetScan(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto keys = MakeKeys(n, 24, 7);
  LatticeIndex index;
  for (const auto& k : keys) index.Insert(k);
  auto probes = MakeKeys(64, 24, 99);
  size_t i = 0;
  for (auto _ : state) {
    std::vector<int> out;
    const auto& probe = probes[i++ % probes.size()];
    index.LinearScan(
        [&probe](LatticeIndex::KeySpan k) {
          return LatticeIndex::IsSubset(k, probe);
        },
        &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LinearSubsetScan)->Arg(32)->Arg(128)->Arg(512)->Arg(2048);

void BM_LatticeSupersetSearch(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto keys = MakeKeys(n, 24, 7);
  LatticeIndex index;
  for (const auto& k : keys) index.Insert(k);
  auto probes = MakeKeys(64, 24, 99);
  size_t i = 0;
  for (auto _ : state) {
    std::vector<int> out;
    index.SearchSupersets(probes[i++ % probes.size()], &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LatticeSupersetSearch)->Arg(32)->Arg(128)->Arg(512)->Arg(2048);

void BM_LatticeInsert(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto keys = MakeKeys(n, 24, 7);
  for (auto _ : state) {
    LatticeIndex index;
    for (const auto& k : keys) index.Insert(k);
    benchmark::DoNotOptimize(index);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_LatticeInsert)->Arg(32)->Arg(256)->Arg(1024);

}  // namespace
}  // namespace mvopt

BENCHMARK_MAIN();
