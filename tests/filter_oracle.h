// Brute-force oracle for the filter tree (§4.2): evaluates every
// partitioning condition and the full range condition directly on a
// view's own description and the query's, with plain set semantics and
// no interning, lattice or tree. FindCandidates must return exactly the
// views this oracle admits, for any level order.

#ifndef MVOPT_TESTS_FILTER_ORACLE_H_
#define MVOPT_TESTS_FILTER_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "index/filter_tree.h"
#include "rewrite/view_catalog.h"
#include "rewrite/view_description.h"

namespace mvopt {
namespace oracle {

template <typename A, typename B>
bool Contains(const std::vector<A>& set, const B& item) {
  return std::find(set.begin(), set.end(), item) != set.end();
}

/// Every element of `sub` occurs in `super`.
template <typename A, typename B>
bool SubsetOf(const std::vector<A>& sub, const std::vector<B>& super) {
  for (const A& item : sub) {
    if (!Contains(super, item)) return false;
  }
  return true;
}

/// `cls` shares an element with `columns`.
inline bool Hits(const std::vector<uint32_t>& cls,
                 const std::vector<uint32_t>& columns) {
  for (uint32_t c : cls) {
    if (Contains(columns, c)) return true;
  }
  return false;
}

inline bool HitsEvery(const ColumnClassList& classes,
                      const std::vector<uint32_t>& columns) {
  return classes.All([&columns](std::span<const uint32_t> cls) {
    return Hits(std::vector<uint32_t>(cls.begin(), cls.end()), columns);
  });
}

/// The §4.2 condition of `level` for view `v` and query `q`, evaluated
/// in the aggregation tree when `v` is an aggregation view. With
/// `backjoins`, the conditions the matcher can repair by a base-table
/// backjoin always hold.
inline bool PassesLevel(FilterLevel level, const ViewDescription& v,
                        const QueryDescription& q, bool backjoins) {
  switch (level) {
    case FilterLevel::kHub:
      return SubsetOf(v.hub, q.source_tables);
    case FilterLevel::kSourceTables:
      return SubsetOf(q.source_tables, v.source_tables);
    case FilterLevel::kOutputExprs:
      return SubsetOf(q.output_expr_texts, v.output_expr_texts) &&
             (!v.is_aggregate || SubsetOf(q.agg_expr_texts, v.output_expr_texts));
    case FilterLevel::kOutputColumns:
      return backjoins ||
             HitsEvery(v.is_aggregate ? q.output_column_classes_agg
                                      : q.output_column_classes_spj,
                       v.extended_output_columns);
    case FilterLevel::kResidual:
      return SubsetOf(v.residual_texts, q.residual_texts);
    case FilterLevel::kRangeConstraints:
      return SubsetOf(v.reduced_range_columns, q.extended_range_columns);
    case FilterLevel::kGroupingExprs:
      return backjoins || SubsetOf(q.grouping_expr_texts, v.grouping_expr_texts);
    case FilterLevel::kGroupingColumns:
      return backjoins ||
             HitsEvery(q.grouping_column_classes, v.extended_grouping_columns);
  }
  return false;
}

/// The full range condition (§4.2.5): every range-constrained view class
/// has a column in the query's extended range list.
inline bool PassesFullRange(const ViewDescription& v,
                            const QueryDescription& q) {
  for (const auto& cls : v.range_constrained_classes) {
    if (!Hits(cls, q.extended_range_columns)) return false;
  }
  return true;
}

/// Bit `l` set <=> `v` passes level `l` (FilterLevel value); bit
/// kNumFilterLevels set <=> it passes the full range condition.
inline uint32_t PassMask(const ViewDescription& v, const QueryDescription& q,
                         bool backjoins) {
  uint32_t mask = 0;
  for (int l = 0; l < kNumFilterLevels; ++l) {
    if (PassesLevel(static_cast<FilterLevel>(l), v, q, backjoins)) {
      mask |= uint32_t{1} << l;
    }
  }
  if (PassesFullRange(v, q)) mask |= uint32_t{1} << kNumFilterLevels;
  return mask;
}

/// The PassMask bits a view must have under `levels`.
inline uint32_t RequiredMask(const std::vector<FilterLevel>& levels) {
  uint32_t mask = uint32_t{1} << kNumFilterLevels;
  for (FilterLevel l : levels) mask |= uint32_t{1} << static_cast<int>(l);
  return mask;
}

/// FilterTree's default level orders (§4.3).
inline std::vector<FilterLevel> PaperSpjLevels() {
  return {FilterLevel::kHub,           FilterLevel::kSourceTables,
          FilterLevel::kOutputExprs,   FilterLevel::kOutputColumns,
          FilterLevel::kResidual,      FilterLevel::kRangeConstraints};
}
inline std::vector<FilterLevel> PaperAggLevels() {
  std::vector<FilterLevel> levels = PaperSpjLevels();
  levels.push_back(FilterLevel::kGroupingExprs);
  levels.push_back(FilterLevel::kGroupingColumns);
  return levels;
}

/// The candidates a tree over `indexed` (ids into `views`) with level
/// orders `spj_levels` / `agg_levels` must return for `q`, sorted.
/// Aggregation views are candidates for aggregation queries only.
inline std::vector<ViewId> Candidates(
    const ViewCatalog& views, const std::vector<ViewId>& indexed,
    const QueryDescription& q, const std::vector<FilterLevel>& spj_levels,
    const std::vector<FilterLevel>& agg_levels, bool backjoins) {
  const uint32_t spj_required = RequiredMask(spj_levels);
  const uint32_t agg_required = RequiredMask(agg_levels);
  std::vector<ViewId> out;
  for (ViewId id : indexed) {
    const ViewDescription& v = views.description(id);
    if (v.is_aggregate && !q.is_aggregate) continue;
    const uint32_t required = v.is_aggregate ? agg_required : spj_required;
    if ((PassMask(v, q, backjoins) & required) == required) out.push_back(id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace oracle
}  // namespace mvopt

#endif  // MVOPT_TESTS_FILTER_ORACLE_H_
