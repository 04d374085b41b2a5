// Structural invariant audits for the matching index and the optimizer
// memo. Where the RewriteChecker proves individual rewrites sound, the
// InvariantAuditor proves the *machinery* sound: it re-derives, by brute
// force, the properties the fast structures rely on —
//
//   - LatticeIndex: the stored cover edges form exactly the Hasse diagram
//     of the key sets (minimal supersets / maximal subsets), keys are
//     sorted duplicate-free, each atom's posting bitset holds exactly
//     the nodes whose key holds the atom and is as wide as the node
//     count needs, and the postings subset/superset searches return
//     exactly the predicate walk's nodes in its order, the set a linear
//     scan returns.
//   - FilterTree: every level node's lattice passes the audit; a live
//     key leads to a subtree holding at least one view and an erased key
//     to none; a tail holds exactly one key per remaining level; each
//     view id appears on exactly one path of the tree matching its
//     description's aggregation class; every leaf record names a
//     registered view (probes resolve each candidate id in the catalog)
//     whose catalog description spells the record's path and carries
//     its inline range-constrained classes; and the leaf population
//     adds up to num_views().
//   - Optimizer memo (via an exported snapshot): group keys are unique,
//     masks are non-empty subsets of the query's table set, GET
//     expressions are single-table, JOIN children partition the group's
//     mask, AGGREGATE expressions wrap the matching SPJ mask, and
//     aggregation-spec ids stay within the declared ranges.
//
// Audits never mutate anything and report every violation found, not
// just the first.

#ifndef MVOPT_VERIFY_INVARIANT_AUDITOR_H_
#define MVOPT_VERIFY_INVARIANT_AUDITOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "index/filter_tree.h"
#include "index/lattice.h"
#include "rewrite/view_catalog.h"

namespace mvopt {

struct AuditReport {
  std::vector<std::string> violations;

  bool ok() const { return violations.empty(); }
  /// "ok" or the violations joined with "; ".
  std::string Summary() const;
};

/// Snapshot of one memo expression, decoupled from optimizer internals so
/// the auditor can also be fed hand-built (adversarial) memos in tests.
struct MemoExprRecord {
  enum class Kind { kGet, kJoin, kAggregate, kViewGet };
  Kind kind = Kind::kGet;
  int32_t table_ref = -1;  ///< kGet: table reference slot
  int child0 = -1;         ///< kJoin / kAggregate: input group id
  int child1 = -1;         ///< kJoin: second input group id
  int32_t view_id = -1;    ///< kViewGet: substituted view
};

/// Snapshot of one memo group.
struct MemoGroupRecord {
  uint32_t mask = 0;  ///< table-reference set
  int agg_spec = -1;  ///< -1 = SPJ group
  std::vector<MemoExprRecord> exprs;
};

class InvariantAuditor {
 public:
  AuditReport AuditLattice(const LatticeIndex& index) const;

  /// Audits `tree` as the index over `views`, the catalog its probes
  /// resolve candidate ids in.
  AuditReport AuditFilterTree(const FilterTree& tree,
                              const ViewCatalog& views) const;

  /// Structural-sharing diagnostic for generations (DESIGN.md §15): the
  /// number of `tree`'s nodes and tails that `previous` does not also
  /// reach (a tail counts as one node).
  int64_t CountUnsharedNodes(const FilterTree& tree,
                             const FilterTree& previous) const;
  /// Digest of `tree`'s whole structure — every node's lattice keys and
  /// liveness, child slots, tail keys and leaf records — for asserting
  /// that a tree was left unmodified.
  uint64_t TreeDigest(const FilterTree& tree) const;
  /// Sorted ids of the views on `tree`'s paths.
  std::vector<ViewId> IndexedViews(const FilterTree& tree) const;

  /// `full_mask` is the query's complete table-reference set,
  /// `num_agg_specs` the number of aggregation specs the optimizer
  /// created, and `joined_agg_key_base` the offset it uses to key
  /// aggregation groups ranging over joined (multi-table) inputs.
  AuditReport AuditMemo(const std::vector<MemoGroupRecord>& groups,
                        uint32_t full_mask, int num_agg_specs,
                        int joined_agg_key_base) const;

 private:
  void CheckLattice(const LatticeIndex& index, const std::string& where,
                    AuditReport* report) const;
  struct TreeWalk;
  /// Audits the subtree of `node` at `depth`, appending the ids it
  /// holds to `walk->seen`.
  void CheckTreeNode(const FilterTree::Node& node, size_t depth,
                     const std::string& where, TreeWalk* walk) const;
  void CheckLeaf(FilterTree::Leaf leaf, const std::string& where,
                 TreeWalk* walk) const;
  /// Calls `node_fn(node)` for each node of the subtree under `node`
  /// (descending only where it returns true) and `tail_fn(child)` for
  /// each tail child, depth first.
  template <typename NodeFn, typename TailFn>
  static void ForEachRecord(const FilterTree::Node& node, NodeFn&& node_fn,
                            TailFn&& tail_fn);
};

}  // namespace mvopt

#endif  // MVOPT_VERIFY_INVARIANT_AUDITOR_H_
