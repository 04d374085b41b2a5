// The statistics-independent half of a cardinality estimate
// (optimizer/cardinality.h): which table each FROM slot reads, which
// columns each nontrivial equivalence class joins, which range
// predicates fold together per column, how many residual conjuncts there
// are and what the result groups on. Everything the estimator reads from
// the catalog statistics (row counts, distinct counts, min/max) is looked
// up when the shape is evaluated, never stored in it.
//
// Every registered view carries one, built once by ViewCatalog::AddView
// from the analysis DescribeView runs there, so pricing a view
// substitute costs one evaluation against the live statistics and a
// statistics change after registration needs no invalidation.

#ifndef MVOPT_QUERY_ESTIMATE_SHAPE_H_
#define MVOPT_QUERY_ESTIMATE_SHAPE_H_

#include <cstdint>
#include <vector>

#include "catalog/catalog.h"
#include "expr/classify.h"
#include "expr/expr.h"

namespace mvopt {

struct EstimateShape {
  /// Catalog table of each FROM slot.
  std::vector<TableId> tables;
  /// Members of each nontrivial equivalence class, classes in
  /// EquivalenceClasses::NontrivialClasses() order: class i spans
  /// [class_end[i - 1], class_end[i]) (class 0 starts at 0).
  std::vector<ColumnRefId> class_members;
  std::vector<uint32_t> class_end;
  /// Range predicates grouped per column, in the order the estimator
  /// folds them (floating-point products are order-sensitive, so the
  /// order is part of the shape): group i spans [range_end[i - 1],
  /// range_end[i]).
  std::vector<RangePred> ranges;
  std::vector<uint32_t> range_end;
  /// Residual conjuncts (each priced at the default selectivity).
  int32_t residuals = 0;
  bool is_aggregate = false;
  /// One entry per grouping expression: the column of a plain column
  /// reference, the default ColumnRefId{-1, -1} for anything else.
  std::vector<ColumnRefId> group_columns;
};

}  // namespace mvopt

#endif  // MVOPT_QUERY_ESTIMATE_SHAPE_H_
