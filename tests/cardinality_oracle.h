// Frozen reference for the cardinality estimator: the query-at-a-time
// estimate as it read before estimates became shapes evaluated against
// the live statistics (optimizer/cardinality.h). Every estimate the
// library produces — from a registered view's shape or from a memo-group
// signature — must equal this one bit for bit: the §5 workload generator
// tunes its range predicates on EstimateSpj, so a one-ulp drift would
// change the generated workload itself.

#ifndef MVOPT_TESTS_CARDINALITY_ORACLE_H_
#define MVOPT_TESTS_CARDINALITY_ORACLE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "catalog/catalog.h"
#include "expr/classify.h"
#include "query/spjg.h"
#include "tests/equiv_oracle.h"

namespace mvopt {
namespace oracle {

constexpr double kDefaultResidualSelectivity = 1.0 / 3.0;
constexpr double kDefaultRangeSelectivity = 1.0 / 3.0;
constexpr double kMinSelectivity = 1e-9;
constexpr double kMinCardinality = 1e-6;
constexpr double kMaxCardinality = 1e18;

inline double Clamp01(double x) {
  if (std::isnan(x)) return kMinSelectivity;
  return std::max(kMinSelectivity, std::min(1.0, x));
}

inline double ClampCardinality(double card) {
  if (std::isnan(card)) return kMaxCardinality;  // pessimistic, but finite
  return std::max(kMinCardinality, std::min(kMaxCardinality, card));
}

inline double RangeSelectivity(const TableDef& table, ColumnOrdinal column,
                               CompareOp op, const Value& bound) {
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

inline double EstimateSpj(const Catalog& catalog, const SpjgQuery& query) {
  const Catalog* catalog_ = &catalog;
  double card = 1.0;
  for (const auto& tr : query.tables) {
    card *= std::max<int64_t>(1, catalog_->table(tr.table).row_count());
  }

  ClassifiedPredicates preds = ClassifyConjuncts(query.conjuncts);

  // Equijoins: one selectivity per nontrivial equivalence class — divide
  // by every distinct count except the largest (containment assumption).
  HashMapEquivalenceClasses ec;
  for (int t = 0; t < query.num_tables(); ++t) {
    ec.AddTableColumns(t, catalog_->table(query.tables[t].table)
                              .num_columns());
  }
  ec.AddEqualities(preds.equalities);
  for (int cls : ec.NontrivialClasses()) {
    std::vector<double> ndvs;
    for (ColumnRefId m : ec.ClassMembers(cls)) {
      const TableDef& t = catalog_->table(query.tables[m.table_ref].table);
      int64_t d = t.column(m.column).stats.distinct;
      ndvs.push_back(d > 0 ? static_cast<double>(d) : 100.0);
    }
    std::sort(ndvs.begin(), ndvs.end());
    // All but the largest.
    for (size_t i = 0; i + 1 < ndvs.size(); ++i) card /= std::max(1.0,
                                                                  ndvs[i]);
  }

  // Ranges: fold per-column predicates into intervals per column and take
  // interval selectivity (avoids double-counting between a>5 and a<9).
  std::unordered_map<uint64_t, std::vector<RangePred>> by_column;
  for (const auto& p : preds.ranges) {
    uint64_t key = (static_cast<uint64_t>(p.column.table_ref) << 32) |
                   static_cast<uint32_t>(p.column.column);
    by_column[key].push_back(p);
  }
  for (const auto& [key, plist] : by_column) {
    int t = static_cast<int>(key >> 32);
    ColumnOrdinal c = static_cast<ColumnOrdinal>(key & 0xffffffffu);
    const TableDef& table = catalog_->table(query.tables[t].table);
    // A non-empty interval selects at least one value: floor the interval
    // selectivity at one distinct value (degenerate ranges like
    // ">= 6 AND <= 6" otherwise estimate to zero).
    const int64_t distinct = table.column(c).stats.distinct;
    const double eq_sel = distinct > 0 ? 1.0 / distinct : 0.01;
    double sel = 1.0;
    bool has_eq = false;
    double lo_sel = 1.0;  // selectivity of the > side
    double hi_sel = 1.0;  // selectivity of the < side
    for (const auto& p : plist) {
      if (p.op == CompareOp::kEq) {
        sel = std::min(sel, RangeSelectivity(table, c, p.op, p.bound));
        has_eq = true;
      } else if (p.op == CompareOp::kGt || p.op == CompareOp::kGe) {
        lo_sel = std::min(lo_sel, RangeSelectivity(table, c, p.op, p.bound));
      } else {
        hi_sel = std::min(hi_sel, RangeSelectivity(table, c, p.op, p.bound));
      }
    }
    if (!has_eq) {
      sel = Clamp01(std::max(lo_sel + hi_sel - 1.0, eq_sel));
      if (lo_sel == 1.0 && hi_sel == 1.0) sel = 1.0;
    }
    card *= sel;
  }

  for (size_t i = 0; i < preds.residual.size(); ++i) {
    card *= kDefaultResidualSelectivity;
  }
  return ClampCardinality(card);
}

inline double EstimateResult(const Catalog& catalog, const SpjgQuery& query) {
  const Catalog* catalog_ = &catalog;
  double spj = EstimateSpj(catalog, query);
  if (!query.is_aggregate) return spj;
  if (query.group_by.empty()) return 1.0;
  // Distinct groups: product of grouping-column distinct counts, capped
  // by the SPJ cardinality.
  double groups = 1.0;
  for (const auto& g : query.group_by) {
    double d = 100.0;
    if (g->kind() == ExprKind::kColumnRef) {
      const TableDef& t =
          catalog_->table(query.tables[g->column_ref().table_ref].table);
      int64_t nd = t.column(g->column_ref().column).stats.distinct;
      if (nd > 0) d = static_cast<double>(nd);
    }
    groups *= d;
  }
  return ClampCardinality(std::min(groups, spj));
}

}  // namespace oracle
}  // namespace mvopt

#endif  // MVOPT_TESTS_CARDINALITY_ORACLE_H_
