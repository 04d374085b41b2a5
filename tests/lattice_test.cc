#include "index/lattice.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.h"

namespace mvopt {
namespace {

using Key = LatticeIndex::Key;
using KeySpan = LatticeIndex::KeySpan;

// The paper's Figure 1 key sets: A,B,D,AB,BE,ABC,ABF,BCDE with atoms
// A=1,B=2,C=3,D=4,E=5,F=6.
std::vector<Key> Figure1Keys() {
  return {{1}, {2}, {4}, {1, 2}, {2, 5}, {1, 2, 3}, {1, 2, 6}, {2, 3, 4, 5}};
}

std::set<Key> KeysOf(const LatticeIndex& idx, const std::vector<int>& nodes) {
  std::set<Key> out;
  for (int n : nodes) out.insert(Key(idx.key(n).begin(), idx.key(n).end()));
  return out;
}

TEST(LatticeTest, Figure1SupersetSearch) {
  LatticeIndex idx;
  for (const auto& k : Figure1Keys()) idx.Insert(k);
  EXPECT_EQ(idx.CheckStructure(), "");

  // Supersets of AB are ABC, ABF and AB itself (paper §4.1 walkthrough).
  std::vector<int> found;
  idx.SearchSupersets(Key{1, 2}, &found);
  EXPECT_EQ(KeysOf(idx, found),
            (std::set<Key>{{1, 2}, {1, 2, 3}, {1, 2, 6}}));
}

TEST(LatticeTest, Figure1SubsetSearch) {
  LatticeIndex idx;
  for (const auto& k : Figure1Keys()) idx.Insert(k);
  // Subsets of BCDE: B, D, BE, BCDE.
  std::vector<int> found;
  idx.SearchSubsets(Key{2, 3, 4, 5}, &found);
  EXPECT_EQ(KeysOf(idx, found),
            (std::set<Key>{{2}, {4}, {2, 5}, {2, 3, 4, 5}}));
}

TEST(LatticeTest, EmptyKeyIsSubsetOfAll) {
  LatticeIndex idx;
  idx.Insert(Key{});
  idx.Insert(Key{1});
  idx.Insert(Key{1, 2});
  EXPECT_EQ(idx.CheckStructure(), "");
  std::vector<int> found;
  idx.SearchSubsets(Key{9}, &found);  // only {} qualifies
  EXPECT_EQ(KeysOf(idx, found), (std::set<Key>{{}}));
  found.clear();
  idx.SearchSupersets(Key{}, &found);
  EXPECT_EQ(found.size(), 3u);
}

TEST(LatticeTest, DuplicateInsertReturnsSameNode) {
  LatticeIndex idx;
  int a = idx.Insert(Key{1, 2});
  int b = idx.Insert(Key{1, 2});
  EXPECT_EQ(a, b);
  EXPECT_EQ(idx.num_live_nodes(), 1);
}

TEST(LatticeTest, EraseIsLazyAndRevivable) {
  LatticeIndex idx;
  idx.Insert(Key{1});
  idx.Insert(Key{1, 2});
  idx.Insert(Key{1, 2, 3});
  ASSERT_TRUE(idx.Erase(Key{1, 2}));
  EXPECT_EQ(idx.num_live_nodes(), 2);
  // Erased node no longer returned but still routes searches.
  std::vector<int> found;
  idx.SearchSupersets(Key{1}, &found);
  EXPECT_EQ(KeysOf(idx, found), (std::set<Key>{{1}, {1, 2, 3}}));
  // Reviving brings it back.
  idx.Insert(Key{1, 2});
  found.clear();
  idx.SearchSupersets(Key{1}, &found);
  EXPECT_EQ(found.size(), 3u);
  EXPECT_FALSE(idx.Erase(Key{9, 9}));
}

TEST(LatticeTest, InsertBetweenRelinksCoverEdges) {
  LatticeIndex idx;
  idx.Insert(Key{1});
  idx.Insert(Key{1, 2, 3});
  EXPECT_EQ(idx.CheckStructure(), "");
  // Inserting {1,2} must break the {1} -> {1,2,3} cover edge.
  idx.Insert(Key{1, 2});
  EXPECT_EQ(idx.CheckStructure(), "");
}

TEST(LatticeTest, MonotonePredicateSearches) {
  LatticeIndex idx;
  for (const auto& k : Figure1Keys()) idx.Insert(k);
  // Downward search with a hitting predicate: key must contain atom 2.
  std::vector<int> found;
  idx.SearchDown([](KeySpan k) {
    return std::find(k.begin(), k.end(), 2u) != k.end();
  }, &found);
  EXPECT_EQ(KeysOf(idx, found),
            (std::set<Key>{{2}, {1, 2}, {2, 5}, {1, 2, 3}, {1, 2, 6},
                           {2, 3, 4, 5}}));
}

TEST(LatticeTest, RandomizedAgainstBruteForce) {
  Rng rng(42);
  LatticeIndex idx;
  std::vector<Key> keys;
  for (int i = 0; i < 120; ++i) {
    Key k;
    int len = static_cast<int>(rng.Uniform(0, 5));
    for (int j = 0; j < len; ++j) {
      k.push_back(static_cast<uint32_t>(rng.Uniform(0, 9)));
    }
    std::sort(k.begin(), k.end());
    k.erase(std::unique(k.begin(), k.end()), k.end());
    idx.Insert(k);
    if (std::find(keys.begin(), keys.end(), k) == keys.end()) {
      keys.push_back(k);
    }
  }
  ASSERT_EQ(idx.CheckStructure(), "");
  ASSERT_EQ(idx.num_live_nodes(), static_cast<int>(keys.size()));

  for (int trial = 0; trial < 50; ++trial) {
    Key probe;
    int len = static_cast<int>(rng.Uniform(0, 6));
    for (int j = 0; j < len; ++j) {
      probe.push_back(static_cast<uint32_t>(rng.Uniform(0, 9)));
    }
    std::sort(probe.begin(), probe.end());
    probe.erase(std::unique(probe.begin(), probe.end()), probe.end());

    std::set<Key> expected_super;
    std::set<Key> expected_sub;
    for (const auto& k : keys) {
      if (LatticeIndex::IsSubset(probe, k)) expected_super.insert(k);
      if (LatticeIndex::IsSubset(k, probe)) expected_sub.insert(k);
    }
    std::vector<int> found;
    idx.SearchSupersets(probe, &found);
    EXPECT_EQ(KeysOf(idx, found), expected_super);
    found.clear();
    idx.SearchSubsets(probe, &found);
    EXPECT_EQ(KeysOf(idx, found), expected_sub);
  }
}

TEST(LatticeTest, RandomizedWithErasures) {
  Rng rng(7);
  LatticeIndex idx;
  std::set<Key> live;
  for (int i = 0; i < 200; ++i) {
    Key k;
    int len = static_cast<int>(rng.Uniform(0, 4));
    for (int j = 0; j < len; ++j) {
      k.push_back(static_cast<uint32_t>(rng.Uniform(0, 7)));
    }
    std::sort(k.begin(), k.end());
    k.erase(std::unique(k.begin(), k.end()), k.end());
    if (rng.Bernoulli(0.3) && !live.empty()) {
      // Erase a random live key.
      auto it = live.begin();
      std::advance(it, rng.Uniform(0, static_cast<int64_t>(live.size()) - 1));
      idx.Erase(*it);
      live.erase(it);
    } else {
      idx.Insert(k);
      live.insert(k);
    }
  }
  std::vector<int> found;
  idx.SearchSupersets(Key{}, &found);
  EXPECT_EQ(KeysOf(idx, found), live);
  EXPECT_EQ(idx.num_live_nodes(), static_cast<int>(live.size()));
}

TEST(LatticeTest, LinearScanMatchesSearch) {
  LatticeIndex idx;
  for (const auto& k : Figure1Keys()) idx.Insert(k);
  Key probe{1, 2};
  std::vector<int> fast;
  idx.SearchSupersets(probe, &fast);
  std::vector<int> slow;
  idx.LinearScan(
      [&probe](KeySpan k) { return LatticeIndex::IsSubset(probe, k); },
      &slow);
  EXPECT_EQ(KeysOf(idx, fast), KeysOf(idx, slow));
}

Key RandomKey(Rng& rng, int max_len, int universe) {
  Key k;
  const auto len = rng.Uniform(0, max_len);
  for (int64_t j = 0; j < len; ++j) {
    k.push_back(static_cast<uint32_t>(rng.Uniform(0, universe - 1)));
  }
  std::sort(k.begin(), k.end());
  k.erase(std::unique(k.begin(), k.end()), k.end());
  return k;
}

// Random lattices of 1 to 200 keys (postings of one to four words),
// with erased and revived keys: for every condition kind, the postings
// search returns exactly the predicate walk's ids in its order, and the
// set a linear scan finds.
TEST(LatticeTest, PostingsSearchEqualsThePredicateWalk) {
  using Kind = LatticeIndex::Condition::Kind;
  Rng rng(2024);
  int64_t found_total = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const int num_keys = trial < 10 ? 1 + trial : static_cast<int>(
                                                      rng.Uniform(1, 200));
    const int universe = static_cast<int>(rng.Uniform(10, 24));
    LatticeIndex idx;
    std::vector<Key> keys;
    while (idx.num_nodes() < num_keys) {
      Key k = RandomKey(rng, 6, universe);
      idx.Insert(k);
      keys.push_back(std::move(k));
    }
    for (int e = 0; e < num_keys / 4; ++e) {
      idx.Erase(keys[rng.Uniform(0, static_cast<int64_t>(keys.size()) - 1)]);
    }
    for (int r = 0; r < num_keys / 16; ++r) {
      idx.Insert(keys[rng.Uniform(0, static_cast<int64_t>(keys.size()) - 1)]);
    }
    ASSERT_EQ(idx.CheckStructure(), "");
    ASSERT_EQ(idx.posting_words(), num_keys < 2 ? 0 : (num_keys + 63) / 64);

    // The union of every key, which every node is a subset of.
    Key all;
    for (const Key& k : keys) all.insert(all.end(), k.begin(), k.end());
    std::sort(all.begin(), all.end());
    all.erase(std::unique(all.begin(), all.end()), all.end());
    for (int probe = 0; probe < 40; ++probe) {
      // Query keys: the union first, then a random key or a stored one
      // (so supersets exist).
      Key query = probe == 0 ? all
                  : rng.Bernoulli(0.5)
                      ? RandomKey(rng, 8, universe + 2)
                      : keys[rng.Uniform(0, static_cast<int64_t>(
                                                keys.size()) - 1)];
      std::vector<uint32_t> class_atoms;
      std::vector<uint32_t> class_ends;
      const auto num_classes = rng.Uniform(0, 4);
      for (int64_t c = 0; c < num_classes; ++c) {
        Key cls = RandomKey(rng, 3, universe + 2);
        if (cls.empty()) cls.push_back(static_cast<uint32_t>(universe + 1));
        class_atoms.insert(class_atoms.end(), cls.begin(), cls.end());
        class_ends.push_back(static_cast<uint32_t>(class_atoms.size()));
      }
      for (Kind kind : {Kind::kNone, Kind::kAll, Kind::kSubsetOf,
                        Kind::kSupersetOf, Kind::kHitsEvery}) {
        LatticeIndex::Condition cond{kind, query, {}};
        if (kind == Kind::kHitsEvery) cond = {kind, class_atoms, class_ends};
        SCOPED_TRACE("trial " + std::to_string(trial) + " kind " +
                     std::to_string(static_cast<int>(kind)));
        auto holds = [&cond](KeySpan k) { return cond.Holds(k); };
        std::vector<int> fast;
        std::vector<int> walk;
        std::vector<int> scan;
        idx.Search(cond, &fast);
        if (cond.walks_up()) {
          idx.SearchUp(holds, &walk);
        } else {
          idx.SearchDown(holds, &walk);
        }
        idx.LinearScan(holds, &scan);
        ASSERT_EQ(fast, walk);
        std::sort(fast.begin(), fast.end());
        ASSERT_EQ(fast, scan);
        found_total += static_cast<int64_t>(fast.size());
      }
    }
  }
  EXPECT_GT(found_total, 0);
}

}  // namespace
}  // namespace mvopt
