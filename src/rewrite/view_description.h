// Precomputed descriptions of views and queries (§4: "we maintain in
// memory a description of every materialized view"). Descriptions carry
// the key sets the filter tree partitions on: source tables, hubs,
// extended output/grouping column lists, residual/output/grouping
// expression texts, and range-constraint lists.
//
// Column identities are flattened to catalog granularity (table id +
// column ordinal) for indexing; per-reference precision is restored by the
// full matching tests, so the filter conditions stay necessary conditions.

#ifndef MVOPT_REWRITE_VIEW_DESCRIPTION_H_
#define MVOPT_REWRITE_VIEW_DESCRIPTION_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "query/estimate_shape.h"
#include "query/spjg.h"
#include "query/view_def.h"

namespace mvopt {

class EquivalenceClasses;
struct MatchProbeContext;

/// Catalog-level column identity used as filter-tree key atoms.
inline uint32_t CatalogColId(TableId table, ColumnOrdinal column) {
  return (static_cast<uint32_t>(table) << 12) | static_cast<uint32_t>(column);
}

/// Per-view metadata for filtering (computed once at view registration).
struct ViewDescription {
  ViewId id = kInvalidViewId;
  bool is_aggregate = false;

  /// Sorted unique catalog ids of referenced tables (§4.2.1).
  std::vector<TableId> source_tables;
  /// The hub: tables that cannot be eliminated via cardinality-preserving
  /// joins, with the §4.2.2 refinement protecting predicate-constrained
  /// tables (sorted unique).
  std::vector<TableId> hub;
  /// Extended output column list: every column equivalent (view classes)
  /// to a simple output column (§4.2.3); sorted unique catalog ids.
  std::vector<uint32_t> extended_output_columns;
  /// Texts of non-simple output expressions, aggregates included (§4.2.7).
  std::vector<std::string> output_expr_texts;
  /// Residual predicate texts (§4.2.6).
  std::vector<std::string> residual_texts;
  /// Reduced range constraint list: catalog ids of range-constrained
  /// columns in trivial equivalence classes (§4.2.5 weak condition).
  std::vector<uint32_t> reduced_range_columns;
  /// Full range constraint list: one column set per range-constrained
  /// view equivalence class (§4.2.5 full condition).
  std::vector<std::vector<uint32_t>> range_constrained_classes;
  /// Extended grouping column list (§4.2.4); aggregation views only.
  std::vector<uint32_t> extended_grouping_columns;
  /// Grouping expression texts, "$" for plain columns (§4.2.8).
  std::vector<std::string> grouping_expr_texts;
};

/// Column classes in one flat list, the form the filter tree searches
/// them in: class i is atoms[ends[i - 1], ends[i]) (class 0 starts at
/// 0), its sorted unique catalog column ids.
struct ColumnClassList {
  std::vector<uint32_t> atoms;
  std::vector<uint32_t> ends;

  size_t size() const { return ends.size(); }
  void clear() {
    atoms.clear();
    ends.clear();
  }
  /// True when `fn` holds for every class.
  template <typename Fn>
  bool All(Fn&& fn) const {
    uint32_t begin = 0;
    for (uint32_t end : ends) {
      if (!fn(std::span<const uint32_t>(atoms.data() + begin, end - begin))) {
        return false;
      }
      begin = end;
    }
    return true;
  }
};

/// Per-query search keys, computed once per view-matching invocation.
struct QueryDescription {
  bool is_aggregate = false;

  std::vector<TableId> source_tables;
  /// One class per column that must be routable to a view output when
  /// the view is an SPJ view: the catalog ids of the column's query
  /// equivalence class. Covers simple outputs, simple aggregate
  /// arguments, and simple grouping expressions.
  ColumnClassList output_column_classes_spj;
  /// Same, for aggregation views (aggregate arguments excluded — they map
  /// to the view's aggregate outputs, not plain columns).
  ColumnClassList output_column_classes_agg;
  /// Texts of complex non-aggregate output expressions.
  std::vector<std::string> output_expr_texts;
  /// Normalized aggregate output texts an aggregation view must provide
  /// (SUM text for SUM and AVG; MIN/MAX texts; count(*) excluded since
  /// every materialized aggregation view carries one).
  std::vector<std::string> agg_expr_texts;
  std::vector<std::string> residual_texts;
  /// Extended range constraint list: catalog ids of every column in a
  /// range-constrained query equivalence class.
  std::vector<uint32_t> extended_range_columns;
  /// Grouping-column classes (simple grouping expressions only).
  ColumnClassList grouping_column_classes;
  /// All grouping expression texts.
  std::vector<std::string> grouping_expr_texts;

  /// Empties every list, keeping its capacity.
  void clear();
};

/// Computes a view's description (in the view's own reference space).
/// With `estimate_shape`, also stores there the view's cardinality-
/// estimate shape, built from the same analysis.
ViewDescription DescribeView(const Catalog& catalog,
                             const ViewDefinition& view,
                             EstimateShape* estimate_shape = nullptr);

/// The cardinality-estimate shape of `query`, from its classified
/// conjuncts and the equivalence classes over every column of its FROM
/// slots with its column equalities applied.
EstimateShape BuildEstimateShape(const SpjgQuery& query,
                                 const ClassifiedPredicates& preds,
                                 const EquivalenceClasses& ec);
/// Same, running that analysis.
EstimateShape BuildEstimateShape(const Catalog& catalog,
                                 const SpjgQuery& query);

/// Fills `out` with a query's search keys, computed from the probe's
/// analysis of it (rewrite/match_program.h: AnalyzeProbeQuery). `out`'s
/// lists are cleared and refilled in place, so a description reused
/// across probes stops allocating once its lists have grown.
void DescribeQuery(const Catalog& catalog, const MatchProbeContext& analysis,
                   QueryDescription* out);

/// Same, analyzing `query` first, into a new description.
QueryDescription DescribeQuery(const Catalog& catalog,
                               const SpjgQuery& query);

}  // namespace mvopt

#endif  // MVOPT_REWRITE_VIEW_DESCRIPTION_H_
