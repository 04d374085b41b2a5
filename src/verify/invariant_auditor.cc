#include "verify/invariant_auditor.h"

#include <algorithm>
#include <bit>
#include <optional>
#include <set>
#include <span>
#include <unordered_set>
#include <utility>

#include "common/hash_util.h"

namespace mvopt {

std::string AuditReport::Summary() const {
  if (violations.empty()) return "ok";
  std::string out;
  for (const auto& v : violations) {
    if (!out.empty()) out += "; ";
    out += v;
  }
  return out;
}

namespace {

using Key = LatticeIndex::Key;
using KeySpan = LatticeIndex::KeySpan;

std::string KeyText(KeySpan key) {
  std::string out = "{";
  for (size_t i = 0; i < key.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(key[i]);
  }
  return out + "}";
}

bool ProperSubset(KeySpan a, KeySpan b) {
  return a.size() < b.size() && LatticeIndex::IsSubset(a, b);
}

std::vector<int> Sorted(std::span<const int> ids) {
  std::vector<int> out(ids.begin(), ids.end());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

void InvariantAuditor::CheckLattice(const LatticeIndex& index,
                                    const std::string& where,
                                    AuditReport* report) const {
  const int n = index.num_nodes();

  // Keys: sorted, duplicate-free, and unique across nodes.
  std::set<Key> distinct;
  for (int i = 0; i < n; ++i) {
    const KeySpan key = index.key(i);
    if (!std::is_sorted(key.begin(), key.end()) ||
        std::adjacent_find(key.begin(), key.end()) != key.end()) {
      report->violations.push_back(where + ": node " + std::to_string(i) +
                                   " key " + KeyText(key) +
                                   " is not sorted unique");
    }
    if (!distinct.insert(Key(key.begin(), key.end())).second) {
      report->violations.push_back(where + ": duplicate key " + KeyText(key));
    }
  }

  // Hasse edges: stored cover edges must equal the brute-force cover
  // relation over all stored keys (erased nodes stay routing waypoints,
  // so they participate).
  for (int i = 0; i < n; ++i) {
    std::vector<int> expected_up;
    std::vector<int> expected_down;
    for (int j = 0; j < n; ++j) {
      if (!ProperSubset(index.key(i), index.key(j))) continue;
      bool covering = true;
      for (int k = 0; k < n; ++k) {
        if (k == i || k == j) continue;
        if (ProperSubset(index.key(i), index.key(k)) &&
            ProperSubset(index.key(k), index.key(j))) {
          covering = false;
          break;
        }
      }
      if (covering) expected_up.push_back(j);
    }
    for (int j = 0; j < n; ++j) {
      if (!ProperSubset(index.key(j), index.key(i))) continue;
      bool covering = true;
      for (int k = 0; k < n; ++k) {
        if (k == i || k == j) continue;
        if (ProperSubset(index.key(j), index.key(k)) &&
            ProperSubset(index.key(k), index.key(i))) {
          covering = false;
          break;
        }
      }
      if (covering) expected_down.push_back(j);
    }
    if (Sorted(index.supersets(i)) != expected_up) {
      report->violations.push_back(where + ": node " + std::to_string(i) +
                                   " superset cover edges disagree with the "
                                   "Hasse diagram");
    }
    if (Sorted(index.subsets(i)) != expected_down) {
      report->violations.push_back(where + ": node " + std::to_string(i) +
                                   " subset cover edges disagree with the "
                                   "Hasse diagram");
    }
  }

  // The index's own structure check (tops/roots consistency, key order).
  std::string self_check = index.CheckStructure();
  if (!self_check.empty()) {
    report->violations.push_back(where + ": " + self_check);
  }

  // Search completeness: the pruned searches must return exactly the
  // linear-scan answer for every stored key (plus the empty key and the
  // union of all keys, which exercise the extremes).
  std::vector<Key> probes;
  probes.push_back({});
  Key all;
  for (int i = 0; i < n; ++i) {
    const KeySpan key = index.key(i);
    probes.emplace_back(key.begin(), key.end());
    all.insert(all.end(), key.begin(), key.end());
  }
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  probes.push_back(all);

  // Postings: one bitset per atom some key holds, in ascending atom
  // order, each holding exactly the nodes whose key holds its atom, and
  // wide enough for every node. None below two nodes, where a search
  // tests the one key directly.
  const int words = n < 2 ? 0 : (n + 63) / 64;
  if (index.posting_words() != words) {
    // Searches would read past bitsets too narrow for the nodes.
    report->violations.push_back(
        where + ": postings are " + std::to_string(index.posting_words()) +
        " words wide for " + std::to_string(n) + " nodes (expected " +
        std::to_string(words) + ")");
    return;
  }
  if (words > 0) {
    bool atoms_agree =
        index.num_posting_atoms() == static_cast<int>(all.size());
    for (int r = 0; atoms_agree && r < index.num_posting_atoms(); ++r) {
      atoms_agree = index.posting_atom(r) == all[static_cast<size_t>(r)];
    }
    if (!atoms_agree) {
      report->violations.push_back(where + ": posting atoms " +
                                   "disagree with the keys' atoms " +
                                   KeyText(all));
    }
    for (int r = 0; atoms_agree && r < index.num_posting_atoms(); ++r) {
      const uint32_t atom = index.posting_atom(r);
      const std::span<const uint64_t> bits = index.posting(r);
      for (int i = 0; i < words * 64; ++i) {
        const bool held =
            i < n && std::ranges::binary_search(index.key(i), atom);
        if (((bits[static_cast<size_t>(i / 64)] >> (i % 64)) & 1) != held) {
          report->violations.push_back(
              where + ": posting of atom " + std::to_string(atom) +
              " disagrees with the key of node " + std::to_string(i));
          break;
        }
      }
    }
  }

  for (const Key& probe : probes) {
    // The postings searches return the predicate walk's nodes in its
    // order, and the set a linear scan finds.
    auto check = [&](const char* name, const std::vector<int>& fast,
                     const std::vector<int>& walk,
                     const std::vector<int>& slow) {
      std::vector<int> sorted = fast;
      std::sort(sorted.begin(), sorted.end());
      if (sorted != slow) {
        report->violations.push_back(where + ": " + name + "(" +
                                     KeyText(probe) +
                                     ") disagrees with a linear scan");
      } else if (fast != walk) {
        report->violations.push_back(where + ": " + name + "(" +
                                     KeyText(probe) +
                                     ") disagrees with the predicate walk's "
                                     "order");
      }
    };
    auto subset_of = [&probe](KeySpan k) {
      return LatticeIndex::IsSubset(k, probe);
    };
    auto superset_of = [&probe](KeySpan k) {
      return LatticeIndex::IsSubset(probe, k);
    };
    std::vector<int> fast;
    std::vector<int> walk;
    std::vector<int> slow;
    index.SearchSubsets(probe, &fast);
    index.SearchUp(subset_of, &walk);
    index.LinearScan(subset_of, &slow);
    check("SearchSubsets", fast, walk, slow);
    fast.clear();
    walk.clear();
    slow.clear();
    index.SearchSupersets(probe, &fast);
    index.SearchDown(superset_of, &walk);
    index.LinearScan(superset_of, &slow);
    check("SearchSupersets", fast, walk, slow);
  }
}

AuditReport InvariantAuditor::AuditLattice(const LatticeIndex& index) const {
  AuditReport report;
  CheckLattice(index, "lattice", &report);
  return report;
}

/// State of one filter-tree audit walk.
struct InvariantAuditor::TreeWalk {
  const FilterTree& tree;
  const ViewCatalog& views;
  const std::vector<FilterLevel>& levels;
  bool agg_tree;
  /// Keys of the path walked so far, one per level above the cursor.
  std::vector<Key> path;
  std::vector<ViewId> seen;
  AuditReport* report;
};

void InvariantAuditor::CheckLeaf(FilterTree::Leaf leaf,
                                 const std::string& where,
                                 TreeWalk* walk) const {
  auto flag = [walk, &where](const std::string& what) {
    walk->report->violations.push_back(where + ": " + what);
  };
  leaf.ForEach([&](ViewId id, const FilterTree::ClassList& classes) {
    walk->seen.push_back(id);
    if (id < 0 || id >= walk->views.num_views()) {
      flag("leaf holds unknown view id " + std::to_string(id));
      return true;
    }
    // The record must be the catalog's view: a record left behind by a
    // rolled-back registration whose id was reused describes another.
    const ViewDescription& d = walk->views.description(id);
    auto disagrees = [&](const std::string& what) {
      flag("leaf record of view " + std::to_string(id) +
           " disagrees with its catalog description: " + what);
    };
    if (d.is_aggregate != walk->agg_tree) {
      disagrees("indexed in the wrong aggregation tree");
      return true;
    }
    const std::optional<FilterTree::ViewKeys> keys =
        walk->tree.LookupViewKeys(d, walk->levels);
    for (size_t l = 0; l < walk->levels.size(); ++l) {
      if (!keys.has_value() || !std::ranges::equal((*keys)[l], walk->path[l])) {
        disagrees(std::string("its ") + FilterLevelName(walk->levels[l]) +
                  " key differs from the path's");
        return true;
      }
    }
    std::vector<std::vector<uint32_t>> inline_classes;
    classes.All([&inline_classes](KeySpan cls) {
      inline_classes.emplace_back(cls.begin(), cls.end());
      return true;
    });
    if (inline_classes != d.range_constrained_classes) {
      disagrees("its inline range-constrained classes differ");
    }
    return true;
  });
}

void InvariantAuditor::CheckTreeNode(const FilterTree::Node& node,
                                     size_t depth, const std::string& where,
                                     TreeWalk* walk) const {
  auto flag = [walk](const std::string& what) {
    walk->report->violations.push_back(what);
  };
  CheckLattice(node.index, where, walk->report);
  const size_t n = static_cast<size_t>(node.index.num_nodes());
  const bool last = depth + 1 == walk->levels.size();
  if (node.leaves.size() > n || node.children.size() > n) {
    flag(where + ": payload arrays exceed the lattice");
  }
  if (last && !node.children.empty()) flag(where + ": leaf level has children");
  if (!last && !node.leaves.empty()) {
    flag(where + ": interior level has leaves");
  }
  for (size_t i = 0; i < n; ++i) {
    const std::string at = where + "#" + std::to_string(i);
    const bool alive = node.index.alive(static_cast<int>(i));
    const KeySpan key = node.index.key(static_cast<int>(i));
    walk->path.emplace_back(key.begin(), key.end());
    const size_t seen_before = walk->seen.size();
    if (last) {
      if (i < node.leaves.size()) {
        CheckLeaf(FilterTree::Leaf{node.leaves[i]}, at, walk);
      }
    } else if (i < node.children.size()) {
      const FilterTree::Child& child = node.children[i];
      if (child.node != nullptr && child.tail != nullptr) {
        flag(at + ": key leads to both a node and a tail");
      }
      if (child.node != nullptr) {
        CheckTreeNode(*child.node, depth + 1, at, walk);
      } else if (child.tail != nullptr) {
        // Exactly one key per remaining level, each sorted unique.
        const std::span<const uint32_t> stream =
            FilterTree::TailKeyWords(child.tail.get());
        size_t pos = 0;
        bool well_formed = true;
        for (size_t l = 0; l < child.skip + (walk->levels.size() - depth - 1);
             ++l) {
          if (pos >= stream.size() || pos + 1 + stream[pos] > stream.size()) {
            well_formed = false;
            break;
          }
          const KeySpan tail_key(stream.data() + pos + 1, stream[pos]);
          if (!std::is_sorted(tail_key.begin(), tail_key.end()) ||
              std::adjacent_find(tail_key.begin(), tail_key.end()) !=
                  tail_key.end()) {
            flag(at + ": tail key " + KeyText(tail_key) +
                 " is not sorted unique");
          }
          if (l >= child.skip) {
            walk->path.emplace_back(tail_key.begin(), tail_key.end());
          }
          pos += 1 + stream[pos];
        }
        if (!well_formed || pos != stream.size()) {
          flag(at + ": tail does not hold one key per remaining level");
        } else {
          CheckLeaf(FilterTree::TailLeaf(child.tail.get()), at + "/tail", walk);
        }
        walk->path.resize(depth + 1);
      }
    }
    const size_t held = walk->seen.size() - seen_before;
    if (alive && held == 0) {
      flag(at + ": live key " + KeyText(key) +
           " leads to a subtree holding no view");
    }
    if (!alive && held > 0) {
      flag(at + ": erased key " + KeyText(key) + " still holds views");
    }
    walk->path.pop_back();
  }
}

AuditReport InvariantAuditor::AuditFilterTree(const FilterTree& tree,
                                              const ViewCatalog& views) const {
  AuditReport report;
  TreeWalk spj{tree, views, tree.spj_levels_, false, {}, {}, &report};
  TreeWalk agg{tree, views, tree.agg_levels_, true, {}, {}, &report};
  if (!tree.spj_levels_.empty()) CheckTreeNode(*tree.spj_root_, 0, "spj", &spj);
  if (!tree.agg_levels_.empty()) CheckTreeNode(*tree.agg_root_, 0, "agg", &agg);
  std::vector<ViewId> seen = spj.seen;
  seen.insert(seen.end(), agg.seen.begin(), agg.seen.end());
  std::sort(seen.begin(), seen.end());
  if (std::adjacent_find(seen.begin(), seen.end()) != seen.end()) {
    report.violations.push_back("a view id appears on more than one path");
  }
  if (static_cast<int>(seen.size()) != tree.num_views()) {
    report.violations.push_back(
        "leaf population " + std::to_string(seen.size()) +
        " disagrees with num_views() " + std::to_string(tree.num_views()));
  }
  return report;
}

template <typename NodeFn, typename TailFn>
void InvariantAuditor::ForEachRecord(const FilterTree::Node& node,
                                     NodeFn&& node_fn, TailFn&& tail_fn) {
  if (!node_fn(node)) return;
  for (const FilterTree::Child& child : node.children) {
    if (child.node != nullptr) {
      ForEachRecord(*child.node, node_fn, tail_fn);
    } else if (child.tail != nullptr) {
      tail_fn(child);
    }
  }
}

int64_t InvariantAuditor::CountUnsharedNodes(
    const FilterTree& tree, const FilterTree& previous) const {
  std::unordered_set<const void*> theirs;
  auto collect_node = [&theirs](const FilterTree::Node& node) {
    theirs.insert(&node);
    return true;
  };
  auto collect_tail = [&theirs](const FilterTree::Child& child) {
    theirs.insert(child.tail.get());
  };
  ForEachRecord(*previous.spj_root_, collect_node, collect_tail);
  ForEachRecord(*previous.agg_root_, collect_node, collect_tail);
  std::unordered_set<const void*> unshared;
  // A node both trees reach is immutable, so its whole subtree is
  // shared too; tails are immutable, so a tail both reach is shared.
  auto count_node = [&](const FilterTree::Node& node) {
    if (theirs.count(&node) != 0) return false;
    unshared.insert(&node);
    return true;
  };
  auto count_tail = [&](const FilterTree::Child& child) {
    if (theirs.count(child.tail.get()) == 0) unshared.insert(child.tail.get());
  };
  ForEachRecord(*tree.spj_root_, count_node, count_tail);
  ForEachRecord(*tree.agg_root_, count_node, count_tail);
  return static_cast<int64_t>(unshared.size());
}

uint64_t InvariantAuditor::TreeDigest(const FilterTree& tree) const {
  size_t digest = static_cast<size_t>(tree.num_views());
  auto hash_words = [&digest](std::span<const uint32_t> words) {
    HashCombine(&digest, words.size());
    for (uint32_t w : words) HashCombine(&digest, w);
  };
  auto walk = [&](auto& self, const FilterTree::Node& node) -> void {
    const int n = node.index.num_nodes();
    HashCombine(&digest, n);
    for (int i = 0; i < n; ++i) {
      HashCombine(&digest, node.index.alive(i));
      HashCombine(&digest, node.index.key(i).size());
      for (uint32_t atom : node.index.key(i)) HashCombine(&digest, atom);
    }
    HashCombine(&digest, node.children.size());
    for (const FilterTree::Child& child : node.children) {
      HashCombine(&digest, child.node != nullptr);
      HashCombine(&digest, child.tail != nullptr);
      if (child.node != nullptr) self(self, *child.node);
      if (child.tail != nullptr) {
        HashCombine(&digest, child.skip);
        hash_words(FilterTree::TailKeyWords(child.tail.get()));
        hash_words(FilterTree::TailLeaf(child.tail.get()).records);
      }
    }
    HashCombine(&digest, node.leaves.size());
    for (const std::vector<uint32_t>& leaf : node.leaves) hash_words(leaf);
  };
  walk(walk, *tree.spj_root_);
  walk(walk, *tree.agg_root_);
  return digest;
}

std::vector<ViewId> InvariantAuditor::IndexedViews(
    const FilterTree& tree) const {
  std::vector<ViewId> ids;
  auto collect = [&ids](FilterTree::Leaf leaf) {
    leaf.ForEach([&ids](ViewId id, const FilterTree::ClassList&) {
      ids.push_back(id);
      return true;
    });
  };
  auto node_fn = [&collect](const FilterTree::Node& node) {
    for (const std::vector<uint32_t>& leaf : node.leaves) {
      collect(FilterTree::Leaf{leaf});
    }
    return true;
  };
  auto tail_fn = [&collect](const FilterTree::Child& child) {
    collect(FilterTree::TailLeaf(child.tail.get()));
  };
  ForEachRecord(*tree.spj_root_, node_fn, tail_fn);
  ForEachRecord(*tree.agg_root_, node_fn, tail_fn);
  std::sort(ids.begin(), ids.end());
  return ids;
}

AuditReport InvariantAuditor::AuditMemo(
    const std::vector<MemoGroupRecord>& groups, uint32_t full_mask,
    int num_agg_specs, int joined_agg_key_base) const {
  AuditReport report;
  auto bad = [&](size_t g, const std::string& what) {
    report.violations.push_back("group " + std::to_string(g) + ": " + what);
  };

  std::set<std::pair<uint32_t, int>> keys;
  for (size_t g = 0; g < groups.size(); ++g) {
    const MemoGroupRecord& group = groups[g];
    if (!keys.insert({group.mask, group.agg_spec}).second) {
      bad(g, "duplicate (mask, agg-spec) key");
    }
    if (group.mask == 0) bad(g, "empty table mask");
    if ((group.mask & ~full_mask) != 0) {
      bad(g, "mask escapes the query's table set");
    }
    const bool spec_ok =
        group.agg_spec == -1 ||
        (group.agg_spec >= 0 && group.agg_spec < num_agg_specs) ||
        (group.agg_spec >= joined_agg_key_base &&
         group.agg_spec < joined_agg_key_base + num_agg_specs);
    if (!spec_ok) bad(g, "aggregation spec id out of range");
    if (group.exprs.empty()) bad(g, "no logical expressions");

    auto group_valid = [&](int id) {
      return id >= 0 && id < static_cast<int>(groups.size());
    };
    for (const MemoExprRecord& e : group.exprs) {
      switch (e.kind) {
        case MemoExprRecord::Kind::kGet:
          if (std::popcount(group.mask) != 1) {
            bad(g, "GET in a multi-table group");
          } else if (e.table_ref != std::countr_zero(group.mask)) {
            bad(g, "GET table does not match the group mask");
          }
          if (group.agg_spec != -1) bad(g, "GET in an aggregation group");
          break;
        case MemoExprRecord::Kind::kJoin: {
          if (!group_valid(e.child0) || !group_valid(e.child1)) {
            bad(g, "JOIN child group id out of range");
            break;
          }
          const MemoGroupRecord& l = groups[e.child0];
          const MemoGroupRecord& r = groups[e.child1];
          if ((l.mask & r.mask) != 0) bad(g, "JOIN children overlap");
          if ((l.mask | r.mask) != group.mask) {
            bad(g, "JOIN children do not partition the group mask");
          }
          if (group.agg_spec == -1) {
            // Plain SPJ join: both inputs are SPJ groups.
            if (l.agg_spec != -1 || r.agg_spec != -1) {
              bad(g, "SPJ JOIN over aggregation groups");
            }
          } else if (group.agg_spec >= joined_agg_key_base) {
            // Join above a pre-aggregation (Example 4): exactly one input
            // carries the inner aggregation spec named by the group key.
            const int inner = group.agg_spec - joined_agg_key_base;
            const bool shape_ok =
                (l.agg_spec == inner && r.agg_spec == -1) ||
                (r.agg_spec == inner && l.agg_spec == -1);
            if (!shape_ok) {
              bad(g, "joined-aggregate JOIN inputs do not match the key");
            }
          } else {
            bad(g, "JOIN in an aggregation group");
          }
          break;
        }
        case MemoExprRecord::Kind::kAggregate: {
          if (group.agg_spec == -1 ||
              group.agg_spec >= joined_agg_key_base) {
            bad(g, "AGGREGATE outside an aggregation group");
            break;
          }
          if (!group_valid(e.child0)) {
            bad(g, "AGGREGATE child group id out of range");
            break;
          }
          const MemoGroupRecord& c = groups[e.child0];
          if (c.mask != group.mask) {
            bad(g, "AGGREGATE child mask differs from the group mask");
          }
          // The input is either the group's SPJ expression set or a
          // join-above-pre-aggregation group of the same mask.
          if (c.agg_spec != -1 && c.agg_spec < joined_agg_key_base) {
            bad(g, "AGGREGATE over another aggregation group");
          }
          break;
        }
        case MemoExprRecord::Kind::kViewGet:
          if (e.view_id < 0) bad(g, "VIEWGET without a view id");
          break;
      }
    }
  }
  return report;
}

}  // namespace mvopt
