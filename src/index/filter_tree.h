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
// Layout (DESIGN.md §17): a subtree with one key per level down to its
// leaf — most of a large catalog — is stored as one immutable tail
// record, in one allocation, holding the remaining level keys and the
// leaf's views with their §4.2.5 range-constrained classes, all flat.
// Only levels that branch are lattice nodes; a search decides a node's
// level condition for all its keys at once from the lattice's postings
// and walks only the passing keys, in the order the predicate walk
// would visit them. A tail is evaluated inline with the same level
// conditions, budget ticks and FilterSearchStats counts a chain of
// one-key nodes would produce, so the layout changes neither the
// candidates, nor their order, nor the statistics. An insert that
// diverges inside a tail turns the levels down to the divergence into
// nodes and re-references the old tail's suffix below it.
//
// Generations (DESIGN.md §15): copying a tree is O(1) and shares every
// node. A tree mutates in place only the nodes it created since it was
// last copied; AddView / RemoveView copy every other node on the view's
// path first, and replace rather than modify the tail they touch
// (common/cow.h states the ownership rule). A tree that has been copied
// is therefore never changed by later mutations of the copy, which is
// what lets MatchingService publish a clone as the next catalog
// generation while probes still walk the previous one.
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
#include <optional>
#include <span>
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
  /// Level walks by the kind performed, one per level probe: subset
  /// walks (hub, residual, weak range), superset walks (source tables,
  /// output and grouping expressions, and the output- and grouping-
  /// column hitting conditions, which descend from the tops like a
  /// superset search), and scans — the full-level walks of the levels
  /// set_assume_backjoins(true) relaxes.
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

  /// Indexes `view` under `view.id`. The leaf keeps the view's id and
  /// range-constrained classes (the full range check of FindCandidates
  /// reads them), not the description. Strongly exception-safe: a
  /// failure mid-insert (allocation or failpoint) rolls the tree back to
  /// its previous state before rethrowing.
  void AddView(const ViewDescription& view);

  /// Removes a previously added view, erasing every key whose subtree
  /// it empties (re-adding revives them). Throws std::logic_error,
  /// changing nothing, when the view is not on the tree.
  void RemoveView(const ViewDescription& view);

  /// Returns ids of views satisfying every partitioning condition for
  /// `query`, including the full range-constraint check (§4.2.5). The
  /// probe draws its budget (deadline + candidate cap) from `ctx`: on
  /// exhaustion it stops early and returns the candidates found so far.
  std::vector<ViewId> FindCandidates(const QueryDescription& query,
                                     QueryContext& ctx,
                                     FilterSearchStats* stats = nullptr) const;

  int num_views() const { return num_views_; }

 private:
  /// The invariant auditor (src/verify) walks the private tree structure
  /// read-only to validate it against the public search results, and
  /// to measure what two generations share.
  friend class InvariantAuditor;

  using Key = LatticeIndex::Key;
  using KeySpan = LatticeIndex::KeySpan;

  /// The classes of one leaf record: `num` classes, each [#atoms,
  /// atoms...], starting at `data`.
  struct ClassList {
    const uint32_t* data;
    uint32_t num;

    /// Past the last class: where the next record starts.
    const uint32_t* end() const {
      const uint32_t* p = data;
      for (uint32_t c = 0; c < num; ++c) p += 1 + *p;
      return p;
    }
    /// True when `fn(class)` holds for every class.
    template <typename Fn>
    bool All(Fn&& fn) const {
      const uint32_t* p = data;
      for (uint32_t c = 0; c < num; ++c) {
        if (!fn(KeySpan(p + 1, *p))) return false;
        p += 1 + *p;
      }
      return true;
    }
  };

  /// The views at one leaf key, each with the §4.2.5 range-constrained
  /// classes its full range check reads, as one flat record stream:
  /// per view, [id, #classes, then #atoms and the atoms of each class].
  /// A node's last level owns one stream per key and a tail holds its
  /// leaf's at the end of its record; both are read in place.
  struct Leaf {
    std::span<const uint32_t> records;

    bool empty() const { return records.empty(); }
    bool Contains(ViewId id) const;
    /// The stream with `view`'s record appended, or without `id`'s.
    std::vector<uint32_t> With(const ViewDescription& view) const;
    std::vector<uint32_t> Without(ViewId id) const;

    /// Calls `fn(id, classes)` per view in insertion order; stops when
    /// `fn` returns false.
    template <typename Fn>
    void ForEach(Fn&& fn) const {
      const uint32_t* p = records.data();
      const uint32_t* const end = p + records.size();
      while (p < end) {
        const ClassList classes{p + 2, p[1]};
        if (!fn(static_cast<ViewId>(p[0]), classes)) return;
        p = classes.end();
      }
    }
  };
  /// Words of `view`'s leaf record, and the record written at `out`
  /// (returns its end).
  static size_t RecordWords(const ViewDescription& view);
  static uint32_t* WriteRecord(const ViewDescription& view, uint32_t* out);

  /// A subtree with one key per level down to its leaf, as one immutable
  /// record in one allocation: [#key words, #leaf words], the level keys
  /// back to back ([#atoms, atoms...] each), then the leaf's stream. A
  /// child may reference a suffix of its levels.
  using Tail = std::shared_ptr<const uint32_t[]>;
  static std::span<const uint32_t> TailKeyWords(const uint32_t* tail) {
    return {tail + 2, tail[0]};
  }
  static Leaf TailLeaf(const uint32_t* tail) {
    return Leaf{{tail + 2 + tail[0], tail[1]}};
  }

  /// Reads a tail's level keys in order, from its `skip`-th level on.
  class TailKeys {
   public:
    TailKeys(const uint32_t* tail, uint32_t skip) : p_(tail + 2) {
      for (uint32_t i = 0; i < skip; ++i) p_ += 1 + *p_;
    }
    KeySpan Next() {
      const KeySpan key(p_ + 1, *p_);
      p_ += 1 + *p_;
      return key;
    }

   private:
    const uint32_t* p_;
  };

  struct Node;
  /// What a live interior key leads to: a branching node, or the levels
  /// of `tail` from its `skip`-th on. Empty under an erased key.
  struct Child {
    std::shared_ptr<Node> node;
    Tail tail;
    uint32_t skip = 0;

    bool empty() const { return node == nullptr && tail == nullptr; }
  };

  struct Node {
    /// Owner tag of the tree that created this node (common/cow.h).
    uint64_t owner = 0;
    LatticeIndex index;
    /// Interior levels: the subtree under each key, by lattice node id.
    std::vector<Child> children;
    /// Last level: the leaf record stream at each key, by lattice node
    /// id.
    std::vector<std::vector<uint32_t>> leaves;
  };

  /// One level's condition for the query of a search.
  struct LevelTest {
    FilterLevel level;
    LatticeIndex::Condition cond;
  };

  /// Interned query-side keys, and each tree's level tests over them,
  /// computed once per search.
  struct SearchContext {
    Key source_tables;
    Key output_expr_atoms;       // SPJ tree
    bool output_exprs_impossible = false;
    Key output_agg_expr_atoms;   // agg tree (incl. agg texts)
    bool output_agg_exprs_impossible = false;
    /// The query description's column classes, read in place; set by
    /// BuildSearchContext and read only within the same search.
    const ColumnClassList* output_classes_spj = nullptr;
    const ColumnClassList* output_classes_agg = nullptr;
    Key residual_atoms;          // unknown texts dropped
    Key extended_range_columns;
    Key grouping_expr_atoms;
    bool grouping_exprs_impossible = false;
    const ColumnClassList* grouping_classes = nullptr;
    /// Per level of the SPJ and aggregation trees, in level order.
    std::vector<LevelTest> spj_tests;
    std::vector<LevelTest> agg_tests;
  };

  std::shared_ptr<Node> NewNode() const { return CowNew<Node>(owner_); }
  Node* Mutable(std::shared_ptr<Node>& slot) {
    return CowMutable(slot, owner_);
  }

  /// A view's key at every level of its tree, in the tail record's key
  /// format: [#atoms, atoms...] per level, back to back.
  struct ViewKeys {
    std::vector<uint32_t> words;
    size_t levels = 0;

    size_t size() const { return levels; }
    KeySpan operator[](size_t level) const;
    /// The words of the keys of levels [from, size()).
    std::span<const uint32_t> Suffix(size_t from) const;
  };
  /// `d`'s keys at `levels`, with `atom_of(text)` giving the atom of an
  /// expression text, or nullopt (then so are the keys).
  template <typename AtomOf>
  static std::optional<ViewKeys> MakeViewKeys(
      const ViewDescription& d, const std::vector<FilterLevel>& levels,
      AtomOf atom_of);
  /// Interns new texts.
  ViewKeys InternViewKeys(const ViewDescription& d,
                          const std::vector<FilterLevel>& levels);
  /// Without interning: nullopt when a text was never interned, so no
  /// view with it is on the tree.
  std::optional<ViewKeys> LookupViewKeys(
      const ViewDescription& d, const std::vector<FilterLevel>& levels) const;

  /// A tail over keys[from..] whose leaf is `leaf`, with `view`'s record
  /// appended when given.
  static Tail MakeTail(const ViewKeys& keys, size_t from, Leaf leaf,
                       const ViewDescription* view);
  /// The subtree replacing `tail` (a child at level `first`) when
  /// `view`'s keys first differ from the tail's at level `diverge`: the
  /// levels above it become one-key nodes, the divergence level a
  /// two-key node over the old tail's suffix and a new tail for `view`.
  std::shared_ptr<Node> SplitTail(const Child& tail, size_t first,
                                  size_t diverge,
                                  const ViewKeys& keys,
                                  const ViewDescription& view) const;

  /// Counts the walk `cond` performs in FilterSearchStats: a subset walk
  /// when it walks up, a scan for kAll, a superset walk otherwise.
  static void CountWalk(const LatticeIndex::Condition& cond,
                        FilterSearchStats* stats);
  /// The condition of `level` for the query in `ctx`.
  LevelTest MakeLevelTest(FilterLevel level, const SearchContext& ctx,
                          bool agg_tree) const;
  void Search(const Node& node, std::span<const LevelTest> tests,
              size_t depth, const SearchContext& ctx,
              std::vector<int>* qualifying, std::vector<ViewId>* out,
              FilterSearchStats* stats, QueryBudget* budget) const;
  void SearchTail(const uint32_t* tail, uint32_t skip,
                  std::span<const LevelTest> tests, size_t depth,
                  const SearchContext& ctx, std::vector<ViewId>* out,
                  FilterSearchStats* stats, QueryBudget* budget) const;
  /// The full range check of each view at `leaf`; true when the
  /// candidate cap ran out.
  static bool ScanLeaf(Leaf leaf, const SearchContext& ctx,
                       std::vector<ViewId>* out, FilterSearchStats* stats,
                       QueryBudget* budget);
  void BuildSearchContext(const QueryDescription& query,
                          SearchContext* ctx) const;

  uint32_t Intern(const std::string& text);

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
