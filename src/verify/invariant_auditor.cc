#include "verify/invariant_auditor.h"

#include <algorithm>
#include <bit>
#include <map>
#include <set>
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

std::string KeyText(const LatticeIndex::Key& key) {
  std::string out = "{";
  for (size_t i = 0; i < key.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(key[i]);
  }
  return out + "}";
}

bool ProperSubset(const LatticeIndex::Key& a, const LatticeIndex::Key& b) {
  return a.size() < b.size() && LatticeIndex::IsSubset(a, b);
}

}  // namespace

void InvariantAuditor::CheckLattice(const LatticeIndex& index,
                                    const std::string& where,
                                    AuditReport* report) const {
  const int n = index.num_nodes();

  // Keys: sorted, duplicate-free, and unique across nodes.
  std::set<LatticeIndex::Key> distinct;
  for (int i = 0; i < n; ++i) {
    const auto& key = index.key(i);
    if (!std::is_sorted(key.begin(), key.end()) ||
        std::adjacent_find(key.begin(), key.end()) != key.end()) {
      report->violations.push_back(where + ": node " + std::to_string(i) +
                                   " key " + KeyText(key) +
                                   " is not sorted unique");
    }
    if (!distinct.insert(key).second) {
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
    std::vector<int> stored_up = index.supersets(i);
    std::vector<int> stored_down = index.subsets(i);
    std::sort(stored_up.begin(), stored_up.end());
    std::sort(stored_down.begin(), stored_down.end());
    if (stored_up != expected_up) {
      report->violations.push_back(where + ": node " + std::to_string(i) +
                                   " superset cover edges disagree with the "
                                   "Hasse diagram");
    }
    if (stored_down != expected_down) {
      report->violations.push_back(where + ": node " + std::to_string(i) +
                                   " subset cover edges disagree with the "
                                   "Hasse diagram");
    }
  }

  // The index's own structure check (tops/roots consistency).
  std::string self_check = index.CheckStructure();
  if (!self_check.empty()) {
    report->violations.push_back(where + ": " + self_check);
  }

  // Search completeness: the pruned searches must return exactly the
  // linear-scan answer for every stored key (plus the empty key and the
  // union of all keys, which exercise the extremes).
  std::vector<LatticeIndex::Key> probes;
  probes.push_back({});
  LatticeIndex::Key all;
  for (int i = 0; i < n; ++i) {
    probes.push_back(index.key(i));
    all.insert(all.end(), index.key(i).begin(), index.key(i).end());
  }
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  probes.push_back(all);
  for (const auto& probe : probes) {
    std::vector<int> fast;
    std::vector<int> slow;
    index.SearchSubsets(probe, &fast);
    index.LinearScan(
        [&](const LatticeIndex::Key& k) {
          return LatticeIndex::IsSubset(k, probe);
        },
        &slow);
    std::sort(fast.begin(), fast.end());
    std::sort(slow.begin(), slow.end());
    if (fast != slow) {
      report->violations.push_back(where + ": SearchSubsets(" +
                                   KeyText(probe) +
                                   ") disagrees with a linear scan");
    }
    fast.clear();
    slow.clear();
    index.SearchSupersets(probe, &fast);
    index.LinearScan(
        [&](const LatticeIndex::Key& k) {
          return LatticeIndex::IsSubset(probe, k);
        },
        &slow);
    std::sort(fast.begin(), fast.end());
    std::sort(slow.begin(), slow.end());
    if (fast != slow) {
      report->violations.push_back(where + ": SearchSupersets(" +
                                   KeyText(probe) +
                                   ") disagrees with a linear scan");
    }
  }
}

AuditReport InvariantAuditor::AuditLattice(const LatticeIndex& index) const {
  AuditReport report;
  CheckLattice(index, "lattice", &report);
  return report;
}

void InvariantAuditor::CheckTreeNode(const FilterTree::Node& node,
                                     const ViewCatalog& views, size_t depth,
                                     size_t num_levels,
                                     bool agg_tree, const std::string& where,
                                     std::vector<ViewId>* seen,
                                     AuditReport* report) const {
  CheckLattice(node.index, where, report);
  const size_t n = static_cast<size_t>(node.index.num_nodes());
  const bool last = depth + 1 == num_levels;
  if (node.leaves.size() > n || node.children.size() > n) {
    report->violations.push_back(where +
                                 ": payload arrays exceed the lattice");
  }
  if (last && !node.children.empty()) {
    report->violations.push_back(where + ": leaf level has children");
  }
  if (!last && !node.leaves.empty()) {
    report->violations.push_back(where + ": interior level has leaves");
  }
  for (size_t i = 0; i < n; ++i) {
    const std::string at = where + "#" + std::to_string(i);
    if (last) {
      const bool populated =
          i < node.leaves.size() && !node.leaves[i].empty();
      if (node.index.alive(static_cast<int>(i)) != populated) {
        report->violations.push_back(
            at + ": leaf liveness disagrees with its view list");
      }
      if (i < node.leaves.size()) {
        for (const auto& view : node.leaves[i]) {
          if (view == nullptr || view->id < 0 ||
              view->id >= views.num_views()) {
            report->violations.push_back(
                at + ": leaf holds unknown view id " +
                (view == nullptr ? std::string("(null)")
                                 : std::to_string(view->id)));
            continue;
          }
          if (view != views.shared_description(view->id)) {
            report->violations.push_back(
                at + ": leaf holds a description of view " +
                std::to_string(view->id) + " the catalog does not");
          }
          if (view->is_aggregate != agg_tree) {
            report->violations.push_back(
                at + ": view " + std::to_string(view->id) +
                " indexed in the wrong aggregation tree");
          }
          seen->push_back(view->id);
        }
      }
      continue;
    }
    const bool has_child =
        i < node.children.size() && node.children[i] != nullptr;
    if (node.index.alive(static_cast<int>(i)) && !has_child) {
      report->violations.push_back(at + ": live interior node has no child");
    }
    if (has_child) {
      CheckTreeNode(*node.children[i], views, depth + 1, num_levels,
                    agg_tree, at, seen, report);
    }
  }
}

AuditReport InvariantAuditor::AuditFilterTree(const FilterTree& tree,
                                              const ViewCatalog& views) const {
  AuditReport report;
  std::vector<ViewId> seen;
  if (!tree.spj_levels_.empty()) {
    CheckTreeNode(*tree.spj_root_, views, 0, tree.spj_levels_.size(),
                  /*agg_tree=*/false, "spj", &seen, &report);
  }
  if (!tree.agg_levels_.empty()) {
    CheckTreeNode(*tree.agg_root_, views, 0, tree.agg_levels_.size(),
                  /*agg_tree=*/true, "agg", &seen, &report);
  }
  std::vector<ViewId> sorted = seen;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    report.violations.push_back("a view id appears on more than one path");
  }
  if (static_cast<int>(seen.size()) != tree.num_views()) {
    report.violations.push_back(
        "leaf population " + std::to_string(seen.size()) +
        " disagrees with num_views() " + std::to_string(tree.num_views()));
  }
  return report;
}

int64_t InvariantAuditor::CountUnsharedNodes(
    const FilterTree& tree, const FilterTree& previous) const {
  std::unordered_set<const FilterTree::Node*> theirs;
  auto collect = [&theirs](auto& self, const FilterTree::Node& node) -> void {
    theirs.insert(&node);
    for (const auto& child : node.children) {
      if (child != nullptr) self(self, *child);
    }
  };
  collect(collect, *previous.spj_root_);
  collect(collect, *previous.agg_root_);
  int64_t unshared = 0;
  auto count = [&theirs, &unshared](auto& self,
                                    const FilterTree::Node& node) -> void {
    // A node both trees reach is immutable, so its whole subtree is
    // shared too.
    if (theirs.count(&node) != 0) return;
    ++unshared;
    for (const auto& child : node.children) {
      if (child != nullptr) self(self, *child);
    }
  };
  count(count, *tree.spj_root_);
  count(count, *tree.agg_root_);
  return unshared;
}

uint64_t InvariantAuditor::TreeDigest(const FilterTree& tree) const {
  size_t digest = static_cast<size_t>(tree.num_views());
  auto walk = [&digest](auto& self, const FilterTree::Node& node) -> void {
    const int n = node.index.num_nodes();
    HashCombine(&digest, n);
    for (int i = 0; i < n; ++i) {
      HashCombine(&digest, node.index.alive(i));
      HashCombine(&digest, node.index.key(i).size());
      for (uint32_t atom : node.index.key(i)) HashCombine(&digest, atom);
    }
    HashCombine(&digest, node.children.size());
    for (const auto& child : node.children) {
      HashCombine(&digest, child != nullptr);
      if (child != nullptr) self(self, *child);
    }
    HashCombine(&digest, node.leaves.size());
    for (const auto& leaf : node.leaves) {
      HashCombine(&digest, leaf.size());
      for (const auto& view : leaf) HashCombine(&digest, view->id);
    }
  };
  walk(walk, *tree.spj_root_);
  walk(walk, *tree.agg_root_);
  return digest;
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
