// Statistics-based cardinality estimation for SPJG expressions. Classic
// System-R style: per-table base cardinalities, independence across
// predicates, equijoin selectivity from distinct counts (via equivalence
// classes, so transitive join chains are handled once per class), range
// selectivity from min/max interpolation.
//
// Every estimate evaluates an EstimateShape (query/estimate_shape.h)
// against the current statistics; registered views carry theirs, so a
// view substitute is priced without re-analyzing the view.
//
// Used by the cost model and by the §5 workload generator, which tunes
// random range predicates until "the estimated cardinality of the SPJ
// part of the result was within 25-75% of the largest table included".

#ifndef MVOPT_OPTIMIZER_CARDINALITY_H_
#define MVOPT_OPTIMIZER_CARDINALITY_H_

#include "catalog/catalog.h"
#include "query/estimate_shape.h"
#include "query/spjg.h"

namespace mvopt {

class CardinalityEstimator {
 public:
  explicit CardinalityEstimator(const Catalog* catalog) : catalog_(catalog) {}

  /// Estimated row count of the SPJ part of `query` (grouping ignored):
  /// builds the query's estimate shape, then evaluates it.
  double EstimateSpj(const SpjgQuery& query) const;

  /// Estimated row count including a final group-by (distinct groups).
  double EstimateResult(const SpjgQuery& query) const;

  /// The same two estimates from a prebuilt shape (a registered view's
  /// ViewDefinition::estimate_shape()), evaluated against the catalog's
  /// current statistics.
  double EstimateSpj(const EstimateShape& shape) const;
  double EstimateResult(const EstimateShape& shape) const;

  /// Selectivity of one range predicate against column statistics.
  double RangeSelectivity(const TableDef& table, ColumnOrdinal column,
                          CompareOp op, const Value& bound) const;

 private:
  const Catalog* catalog_;
};

}  // namespace mvopt

#endif  // MVOPT_OPTIMIZER_CARDINALITY_H_
