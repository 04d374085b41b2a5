// Filter tree (§4): a multiway search tree over view descriptions that
// quickly discards views that cannot be used by a query. Every internal
// node partitions its views by one condition; the keys within a node are
// organized in a lattice index so subset/superset searches avoid scanning
// every key.
//
// Two parallel trees are kept: one for SPJ views and one for aggregation
// views (the paper's two extra grouping levels only exist for the
// latter). SPJ queries search only the SPJ tree — an aggregated view can
// never answer a pure SPJ query.
//
// Level order follows §4.3: hubs, source tables, output expressions,
// output columns, residual constraints, range constraints, and (for
// aggregation views) grouping expressions and grouping columns.
//
// Generations (DESIGN.md §15): copying a tree is O(1) and shares every
// node. A tree mutates in place only the nodes it created since it was
// last copied; AddView / RemoveView copy every other node on the view's
// root-to-leaf path first — 6 nodes for an SPJ view, 8 for an
// aggregation view (common/cow.h states the ownership rule). A tree that
// has been copied is therefore never changed by later mutations of the
// copy, which is what lets MatchingService publish a clone as the next
// catalog generation while probes still walk the previous one.
//
// Thread-safety: const members (FindCandidates, num_views) are safe
// from any thread, concurrently with mutation of any copy.
// Mutation and copying of one instance are externally synchronized —
// MatchingService mutates only its unpublished clone, under its writer
// mutex.

#ifndef MVOPT_INDEX_FILTER_TREE_H_
#define MVOPT_INDEX_FILTER_TREE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/cow.h"
#include "common/query_budget.h"
#include "common/query_context.h"
#include "index/lattice.h"
#include "query/view_def.h"
#include "rewrite/view_description.h"

namespace mvopt {

/// The partitioning conditions of §4.2.
enum class FilterLevel {
  kHub,
  kSourceTables,
  kOutputExprs,
  kOutputColumns,
  kResidual,
  kRangeConstraints,
  kGroupingExprs,
  kGroupingColumns,
};

/// Number of FilterLevel values, for level-indexed count arrays.
inline constexpr int kNumFilterLevels = 8;
static_assert(static_cast<int>(FilterLevel::kGroupingColumns) + 1 ==
                  kNumFilterLevels,
              "kNumFilterLevels must cover every FilterLevel");

const char* FilterLevelName(FilterLevel level);

/// Search-side instrumentation (for the §5 effectiveness numbers, the
/// level-ablation bench and the observability layer). Per-level arrays
/// are indexed by FilterLevel value, merging the SPJ and aggregation
/// trees.
struct FilterSearchStats {
  int64_t lattice_nodes_visited = 0;
  int64_t views_range_checked = 0;
  int64_t views_range_rejected = 0;
  /// Lattice search calls by kind (§4.4's subset/superset walks; scans
  /// are the backjoin-relaxed full-level walks).
  int64_t subset_searches = 0;
  int64_t superset_searches = 0;
  int64_t scan_searches = 0;
  /// Times each level's partitioning condition was evaluated.
  std::array<int64_t, kNumFilterLevels> level_probes{};
  /// Lattice nodes qualifying (candidate paths surviving) per level.
  std::array<int64_t, kNumFilterLevels> level_qualifying{};

  void MergeFrom(const FilterSearchStats& other) {
    lattice_nodes_visited += other.lattice_nodes_visited;
    views_range_checked += other.views_range_checked;
    views_range_rejected += other.views_range_rejected;
    subset_searches += other.subset_searches;
    superset_searches += other.superset_searches;
    scan_searches += other.scan_searches;
    for (int i = 0; i < kNumFilterLevels; ++i) {
      level_probes[i] += other.level_probes[i];
      level_qualifying[i] += other.level_qualifying[i];
    }
  }
};

class FilterTree {
 public:
  FilterTree();

  /// Generation copy: O(1), shares every node with `other` (see the
  /// file comment for what later mutations of either tree copy).
  FilterTree(const FilterTree& other);
  FilterTree& operator=(const FilterTree&) = delete;

  /// Overrides the default level orders (primarily for the ablation
  /// bench). Must be called before the first AddView. Grouping levels are
  /// ignored for the SPJ tree.
  void SetLevels(std::vector<FilterLevel> spj_levels,
                 std::vector<FilterLevel> agg_levels);

  /// When the matcher may add base-table backjoins (§7 extension), the
  /// output-column and grouping-column hitting conditions are no longer
  /// necessary conditions; this disables them.
  void set_assume_backjoins(bool v) { assume_backjoins_ = v; }

  /// Indexes the view `view` describes under `view->id`. The leaf keeps
  /// the description: the full range check of FindCandidates reads it.
  /// Strongly exception-safe: a failure mid-insert (allocation or
  /// failpoint) rolls the tree back to its previous state before
  /// rethrowing.
  void AddView(std::shared_ptr<const ViewDescription> view);

  /// Removes a previously added view.
  void RemoveView(const ViewDescription& view);

  /// Returns ids of views satisfying every partitioning condition for
  /// `query`, including the full range-constraint check (§4.2.5).
  /// When `budget` is given, the search stops early on deadline or
  /// candidate-cap exhaustion and returns the candidates found so far.
  std::vector<ViewId> FindCandidates(const QueryDescription& query,
                                     FilterSearchStats* stats = nullptr,
                                     QueryBudget* budget = nullptr) const;

  /// Context form: the probe draws its budget (deadline + candidate cap)
  /// from `ctx`. Preferred for new callers; the loose-parameter overload
  /// above is kept for back-compat.
  std::vector<ViewId> FindCandidates(const QueryDescription& query,
                                     QueryContext& ctx,
                                     FilterSearchStats* stats = nullptr) const {
    return FindCandidates(query, stats, ctx.budget());
  }

  int num_views() const { return num_views_; }

 private:
  /// The invariant auditor (src/verify) walks the private tree structure
  /// read-only to validate it against the public search results, and
  /// to measure what two generations share.
  friend class InvariantAuditor;

  struct Node {
    /// Owner tag of the tree that created this node (common/cow.h).
    uint64_t owner = 0;
    LatticeIndex index;
    /// Children / leaf payloads indexed by lattice node id.
    std::vector<std::shared_ptr<Node>> children;
    std::vector<std::vector<std::shared_ptr<const ViewDescription>>> leaves;
  };

  /// Interned query-side keys, computed once per search.
  struct SearchContext {
    LatticeIndex::Key source_tables;
    LatticeIndex::Key output_expr_atoms;       // SPJ tree
    bool output_exprs_impossible = false;
    LatticeIndex::Key output_agg_expr_atoms;   // agg tree (incl. agg texts)
    bool output_agg_exprs_impossible = false;
    std::vector<LatticeIndex::Key> output_classes_spj;
    std::vector<LatticeIndex::Key> output_classes_agg;
    LatticeIndex::Key residual_atoms;          // unknown texts dropped
    LatticeIndex::Key extended_range_columns;
    LatticeIndex::Key grouping_expr_atoms;
    bool grouping_exprs_impossible = false;
    std::vector<LatticeIndex::Key> grouping_classes;
    bool is_aggregate = false;
  };

  std::shared_ptr<Node> NewNode() const { return CowNew<Node>(owner_); }
  Node* Mutable(std::shared_ptr<Node>& slot) {
    return CowMutable(slot, owner_);
  }

  LatticeIndex::Key ViewKey(const ViewDescription& d, FilterLevel level);
  void Search(const Node& node, const std::vector<FilterLevel>& levels,
              size_t depth, const SearchContext& ctx, bool agg_tree,
              std::vector<ViewId>* out, FilterSearchStats* stats,
              QueryBudget* budget) const;
  void SearchLevel(const Node& node, FilterLevel level,
                   const SearchContext& ctx, bool agg_tree,
                   std::vector<int>* out, FilterSearchStats* stats) const;
  static bool PassesFullRangeCondition(const ViewDescription& view,
                                       const SearchContext& ctx);

  uint32_t Intern(const std::string& text);
  const uint32_t* LookupAtom(const std::string& text) const {
    return atoms_.Find(text);
  }

  /// Declared first: NewNode() stamps the roots with it.
  mutable uint64_t owner_ = NewCowOwner();
  std::vector<FilterLevel> spj_levels_;
  std::vector<FilterLevel> agg_levels_;
  std::shared_ptr<Node> spj_root_;
  std::shared_ptr<Node> agg_root_;
  CowStringMap<uint32_t> atoms_;
  int num_views_ = 0;
  bool assume_backjoins_ = false;
};

}  // namespace mvopt

#endif  // MVOPT_INDEX_FILTER_TREE_H_
