// Materialized view definitions (the paper's "indexed views", §2).
//
// A view is an SPJG expression plus physical metadata: a clustered index
// and optional secondary indexes over the view's output columns. The class
// of indexable views is validated here: single-level SPJG over base
// tables; aggregation views must output every grouping expression plus a
// count(*) column, and may additionally contain only SUM (and, as the §7
// extension, MIN/MAX) aggregates.

#ifndef MVOPT_QUERY_VIEW_DEF_H_
#define MVOPT_QUERY_VIEW_DEF_H_

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "query/estimate_shape.h"
#include "query/spjg.h"

namespace mvopt {

using ViewId = int32_t;
inline constexpr ViewId kInvalidViewId = -1;

/// An index over a view's (or table's) output columns, by output ordinal.
struct IndexDef {
  std::string name;
  std::vector<int> key_columns;
  bool unique = false;
};

/// A validated materialized view definition.
class ViewDefinition {
 public:
  /// Validates `query` as an indexable view. Returns nullopt on success or
  /// a human-readable reason for rejection.
  static std::optional<std::string> Validate(const SpjgQuery& query,
                                             bool allow_min_max = true);

  ViewDefinition(ViewId id, std::string name, SpjgQuery query)
      : id_(id), name_(std::move(name)), query_(std::move(query)) {}

  ViewId id() const { return id_; }
  const std::string& name() const { return name_; }
  const SpjgQuery& query() const { return query_; }

  void set_clustered_index(IndexDef index) {
    clustered_ = std::move(index);
    has_clustered_ = true;
  }
  bool has_clustered_index() const { return has_clustered_; }
  const IndexDef& clustered_index() const { return clustered_; }

  void AddSecondaryIndex(IndexDef index) {
    secondary_.push_back(std::move(index));
  }
  const std::vector<IndexDef>& secondary_indexes() const {
    return secondary_;
  }

  /// For aggregation views: ordinal of the count(*) output, or -1.
  int CountColumnOrdinal() const;

  /// Ordinal of the output whose expression structurally equals `expr`,
  /// or -1 if absent.
  int FindOutput(const Expr& expr) const;

  /// The table id this view was registered under once materialized
  /// (kInvalidTableId before materialization). See Engine::MaterializeView.
  TableId materialized_table() const { return materialized_table_; }
  void set_materialized_table(TableId id) { materialized_table_ = id; }

  /// The view's cardinality-estimate shape, which the optimizer evaluates
  /// to price a substitute of a view that is not materialized. Set once
  /// by ViewCatalog::AddView before the view is published; empty (no
  /// tables) on a definition that was never registered.
  const EstimateShape& estimate_shape() const { return estimate_shape_; }
  void set_estimate_shape(EstimateShape shape) {
    estimate_shape_ = std::move(shape);
  }

 private:
  ViewId id_;
  std::string name_;
  SpjgQuery query_;
  bool has_clustered_ = false;
  IndexDef clustered_;
  std::vector<IndexDef> secondary_;
  TableId materialized_table_ = kInvalidTableId;
  EstimateShape estimate_shape_;
};

}  // namespace mvopt

#endif  // MVOPT_QUERY_VIEW_DEF_H_
