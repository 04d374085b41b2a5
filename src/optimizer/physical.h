// Physical plans. Nodes carry everything the plan executor needs plus the
// estimated cost/cardinality the optimizer used to pick them.
//
// Column addressing: scans of base tables expose the query's global
// column references (table_ref = the query's FROM slot). Aggregations
// introduce synthetic references {kSyntheticRefBase + spec_id, ordinal}
// for their aggregate outputs. View scans expose the global columns
// listed in `provides`.

#ifndef MVOPT_OPTIMIZER_PHYSICAL_H_
#define MVOPT_OPTIMIZER_PHYSICAL_H_

#include <memory>
#include <string>
#include <vector>

#include "query/spjg.h"
#include "query/substitute.h"
#include "query/view_def.h"
#include "rewrite/range.h"

namespace mvopt {

/// Table-ref base for synthetic columns produced by aggregation nodes.
inline constexpr int32_t kSyntheticRefBase = 1000;

enum class PhysKind {
  kTableScan,
  kIndexRangeScan,
  kHashJoin,
  kHashAggregate,
  kProject,
  kViewScan,       ///< scan of a materialized view + compensations
  kViewIndexScan,  ///< same, driven by an index range on the view
};

const char* PhysKindName(PhysKind kind);

struct PhysPlan;
using PhysPlanPtr = std::shared_ptr<const PhysPlan>;

struct PhysPlan {
  PhysKind kind = PhysKind::kTableScan;
  std::vector<PhysPlanPtr> children;

  // Scans (table or view).
  TableId table = kInvalidTableId;  ///< base table or view's table
  int32_t table_ref = -1;           ///< global FROM slot (base scans)

  // Index scans: index name + leading-column range.
  std::string index_name;
  ColumnOrdinal index_column = -1;
  ValueRange index_range;

  /// Residual filter applied after the scan / join / view compensations.
  /// Base scans and joins: query-space expressions. View scans:
  /// substitute-space (view-output) expressions.
  std::vector<ExprPtr> filter;

  // Hash join equi-keys (query-space column pairs, left/right).
  std::vector<std::pair<ColumnRefId, ColumnRefId>> join_keys;

  // Aggregation / projection payload (query-space expressions;
  // aggregation outputs may introduce synthetic refs via `agg_spec_id`).
  std::vector<ExprPtr> group_by;
  std::vector<OutputExpr> outputs;
  int agg_spec_id = -1;

  // View scans.
  ViewId view = kInvalidViewId;
  /// The view's registered name, preferred by ToString over the raw id:
  /// ids are an implementation detail of the substitute source (the
  /// sharded catalog hands out composite global ids), so rendering the
  /// name keeps plan text comparable across id spaces — the property the
  /// sharded-vs-unsharded byte-identity checks rely on.
  std::string view_name;
  /// The memo's substitute, shared by every plan that scans it.
  std::shared_ptr<const Substitute> substitute;
  /// Global column reference provided by each substitute output position
  /// (empty when the node is a root producing final query outputs).
  std::vector<ColumnRefId> provides;

  // Estimates.
  double cost = 0;
  double rows = 0;

  /// True if this subtree reads any materialized view.
  bool UsesView() const;

  /// Indented one-node-per-line rendering for examples and debugging.
  std::string ToString(const Catalog& catalog, int indent = 0) const;
};

}  // namespace mvopt

#endif  // MVOPT_OPTIMIZER_PHYSICAL_H_
