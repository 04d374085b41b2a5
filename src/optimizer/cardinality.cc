#include "optimizer/cardinality.h"

#include <algorithm>
#include <cmath>

#include "rewrite/view_description.h"

namespace mvopt {

namespace {

constexpr double kDefaultResidualSelectivity = 1.0 / 3.0;
constexpr double kDefaultRangeSelectivity = 1.0 / 3.0;
constexpr double kMinSelectivity = 1e-9;
/// Estimates are clamped into [kMinCardinality, kMaxCardinality]: a NaN
/// or Inf estimate poisons every best-plan `<` comparison downstream
/// (NaN compares false both ways, so an unusable plan can survive as
/// "best"), and an underflowed 0 makes every alternative look free.
constexpr double kMinCardinality = 1e-6;
constexpr double kMaxCardinality = 1e18;

double Clamp01(double x) {
  if (std::isnan(x)) return kMinSelectivity;
  return std::max(kMinSelectivity, std::min(1.0, x));
}

double ClampCardinality(double card) {
  if (std::isnan(card)) return kMaxCardinality;  // pessimistic, but finite
  return std::max(kMinCardinality, std::min(kMaxCardinality, card));
}

}  // namespace

double CardinalityEstimator::RangeSelectivity(const TableDef& table,
                                              ColumnOrdinal column,
                                              CompareOp op,
                                              const Value& bound) const {
  const ColumnStats& stats = table.column(column).stats;
  if (op == CompareOp::kEq) {
    if (stats.distinct > 0) return Clamp01(1.0 / stats.distinct);
    return Clamp01(kDefaultRangeSelectivity / 10);
  }
  if (stats.min.is_null() || stats.max.is_null() || !bound.is_numeric() ||
      !stats.min.is_numeric()) {
    return kDefaultRangeSelectivity;
  }
  const double lo = stats.min.AsDouble();
  const double hi = stats.max.AsDouble();
  const double b = bound.AsDouble();
  // Degenerate stats or bound (NaN, +-Inf, collapsed range): the
  // interpolation below would produce NaN or a meaningless 0/1.
  if (!std::isfinite(lo) || !std::isfinite(hi) || !std::isfinite(b) ||
      hi <= lo) {
    return kDefaultRangeSelectivity;
  }
  double frac = (b - lo) / (hi - lo);
  frac = std::max(0.0, std::min(1.0, frac));
  switch (op) {
    case CompareOp::kLt:
    case CompareOp::kLe:
      return Clamp01(frac);
    case CompareOp::kGt:
    case CompareOp::kGe:
      return Clamp01(1.0 - frac);
    default:
      return kDefaultRangeSelectivity;
  }
}

double CardinalityEstimator::EstimateSpj(const EstimateShape& shape) const {
  double card = 1.0;
  for (TableId t : shape.tables()) {
    card *= std::max<int64_t>(1, catalog_->table(t).row_count());
  }
  auto column_stats = [&](ColumnRefId c) -> const ColumnStats& {
    return catalog_->table(shape.tables()[static_cast<size_t>(c.table_ref)])
        .column(c.column)
        .stats;
  };

  // Equijoins: one selectivity per nontrivial equivalence class — divide
  // by every distinct count except the largest (containment assumption).
  // The distinct counts sort in a per-thread buffer: once warm, an
  // estimate allocates nothing here.
  thread_local std::vector<double> ndvs;
  uint32_t begin = 0;
  for (uint32_t end : shape.class_end()) {
    ndvs.clear();
    for (uint32_t i = begin; i < end; ++i) {
      int64_t d = column_stats(shape.class_members()[i]).distinct;
      ndvs.push_back(d > 0 ? static_cast<double>(d) : 100.0);
    }
    begin = end;
    std::sort(ndvs.begin(), ndvs.end());
    // All but the largest.
    for (size_t i = 0; i + 1 < ndvs.size(); ++i) card /= std::max(1.0,
                                                                  ndvs[i]);
  }

  // Ranges: fold per-column predicates into intervals per column and take
  // interval selectivity (avoids double-counting between a>5 and a<9).
  begin = 0;
  for (uint32_t end : shape.range_end()) {
    const ColumnRefId col = shape.ranges[begin].column;
    const TableDef& table =
        catalog_->table(shape.tables()[static_cast<size_t>(col.table_ref)]);
    const ColumnOrdinal c = col.column;
    // A non-empty interval selects at least one value: floor the interval
    // selectivity at one distinct value (degenerate ranges like
    // ">= 6 AND <= 6" otherwise estimate to zero).
    const int64_t distinct = table.column(c).stats.distinct;
    const double eq_sel = distinct > 0 ? 1.0 / distinct : 0.01;
    double sel = 1.0;
    bool has_eq = false;
    double lo_sel = 1.0;  // selectivity of the > side
    double hi_sel = 1.0;  // selectivity of the < side
    for (uint32_t i = begin; i < end; ++i) {
      const RangePred& p = shape.ranges[i];
      if (p.op == CompareOp::kEq) {
        sel = std::min(sel, RangeSelectivity(table, c, p.op, p.bound));
        has_eq = true;
      } else if (p.op == CompareOp::kGt || p.op == CompareOp::kGe) {
        lo_sel = std::min(lo_sel, RangeSelectivity(table, c, p.op, p.bound));
      } else {
        hi_sel = std::min(hi_sel, RangeSelectivity(table, c, p.op, p.bound));
      }
    }
    begin = end;
    if (!has_eq) {
      sel = Clamp01(std::max(lo_sel + hi_sel - 1.0, eq_sel));
      if (lo_sel == 1.0 && hi_sel == 1.0) sel = 1.0;
    }
    card *= sel;
  }

  for (int32_t i = 0; i < shape.residuals; ++i) {
    card *= kDefaultResidualSelectivity;
  }
  return ClampCardinality(card);
}

double CardinalityEstimator::EstimateResult(const EstimateShape& shape) const {
  double spj = EstimateSpj(shape);
  if (!shape.is_aggregate) return spj;
  if (shape.group_columns().empty()) return 1.0;
  // Distinct groups: product of grouping-column distinct counts, capped
  // by the SPJ cardinality.
  double groups = 1.0;
  for (ColumnRefId g : shape.group_columns()) {
    double d = 100.0;
    if (g.table_ref >= 0) {
      const TableDef& t =
          catalog_->table(shape.tables()[static_cast<size_t>(g.table_ref)]);
      int64_t nd = t.column(g.column).stats.distinct;
      if (nd > 0) d = static_cast<double>(nd);
    }
    groups *= d;
  }
  return ClampCardinality(std::min(groups, spj));
}

double CardinalityEstimator::EstimateSpj(const SpjgQuery& query) const {
  return EstimateSpj(BuildEstimateShape(*catalog_, query));
}

double CardinalityEstimator::EstimateResult(const SpjgQuery& query) const {
  return EstimateResult(BuildEstimateShape(*catalog_, query));
}

}  // namespace mvopt
