#include "rewrite/union_matcher.h"

#include <algorithm>

#include "expr/classify.h"
#include "rewrite/range.h"

namespace mvopt {

namespace {

// Integer domains have no values strictly between v and v+1: an exclusive
// lower bound at v is the inclusive bound at v+1. Normalizing this way
// lets a view declared as [v+1, ...] cover the remainder after a leg that
// ended at v (adjacent integer slices).
RangeBound NormalizeLower(RangeBound b, ValueType type) {
  if (b.is_infinite || b.inclusive) return b;
  if (type == ValueType::kInt64) {
    b.value = Value::Int64(b.value.int64() + 1);
    b.inclusive = true;
  } else if (type == ValueType::kDate) {
    b.value = Value::Date(b.value.int64() + 1);
    b.inclusive = true;
  }
  return b;
}

// Equality of two upper bounds (value + openness, or both infinite).
bool SameUpper(const RangeBound& a, const RangeBound& b) {
  if (a.is_infinite != b.is_infinite) return false;
  if (a.is_infinite) return true;
  return a.inclusive == b.inclusive && a.value == b.value;
}

// The view's range on `column` of catalog table `table`, computed from
// the view's own predicates and equivalence classes. Unconstrained when
// the view does not reference the table.
ValueRange ViewRangeOn(const Catalog& catalog, const ViewDefinition& view,
                       TableId table, ColumnOrdinal column) {
  const SpjgQuery& q = view.query();
  ClassifiedPredicates preds = ClassifyConjuncts(q.conjuncts);
  EquivalenceClasses ec(catalog, q.tables);
  ec.AddEqualities(preds.equalities);
  RangeMap ranges = RangeMap::Build(preds.ranges, ec);
  for (int t = 0; t < q.num_tables(); ++t) {
    if (q.tables[t].table == table) {
      return ranges.Get(ec.ClassOf(ColumnRefId{t, column}));
    }
  }
  return ValueRange{};
}

}  // namespace

std::optional<UnionSubstitute> UnionMatcher::Match(
    const SpjgQuery& query, const std::vector<ViewId>& candidates,
    QueryContext* ctx) const {
  if (query.is_aggregate) return std::nullopt;  // SPJ-only (see header)
  if (candidates.size() < 2) return std::nullopt;

  // Candidate partition columns: the query's own range-constrained
  // columns, plus columns the candidate views range-partition on.
  std::vector<ColumnRefId> columns;
  auto add_column = [&](ColumnRefId c) {
    if (std::find(columns.begin(), columns.end(), c) == columns.end() &&
        static_cast<int>(columns.size()) < options_.max_partition_columns) {
      columns.push_back(c);
    }
  };
  ClassifiedPredicates query_preds = ClassifyConjuncts(query.conjuncts);
  for (const auto& p : query_preds.ranges) add_column(p.column);
  for (ViewId v : candidates) {
    const ViewDescription& d = views_->description(v);
    for (const auto& cls : d.range_constrained_classes) {
      for (uint32_t id : cls) {
        TableId table = static_cast<TableId>(id >> 12);
        ColumnOrdinal col = static_cast<ColumnOrdinal>(id & 0xfff);
        for (int t = 0; t < query.num_tables(); ++t) {
          if (query.tables[t].table == table) {
            add_column(ColumnRefId{t, col});
            break;
          }
        }
      }
    }
  }

  for (ColumnRefId column : columns) {
    if (ctx != nullptr) {
      ctx->TickDeadline();
      if (ctx->exhausted()) return std::nullopt;
    }
    auto result = TryPartitionColumn(query, column, candidates, ctx);
    if (result.has_value()) return result;
  }
  return std::nullopt;
}

std::optional<UnionSubstitute> UnionMatcher::TryPartitionColumn(
    const SpjgQuery& query, ColumnRefId column,
    const std::vector<ViewId>& candidates, QueryContext* ctx) const {
  // The query's target range on the partition column's class.
  ClassifiedPredicates preds = ClassifyConjuncts(query.conjuncts);
  EquivalenceClasses ec(*catalog_, query.tables);
  ec.AddEqualities(preds.equalities);
  RangeMap ranges = RangeMap::Build(preds.ranges, ec);
  ValueRange target = ranges.Get(ec.ClassOf(column));

  const TableId part_table = query.tables[column.table_ref].table;
  const ValueType part_type =
      catalog_->table(part_table).column(column.column).type;
  ExprPtr part_col = Expr::MakeColumn(column);

  UnionSubstitute result;
  // Lower edge of the uncovered remainder.
  RangeBound cursor = NormalizeLower(target.lo, part_type);

  for (int step = 0; step < options_.max_legs; ++step) {
    if (ctx != nullptr) {
      ctx->TickDeadline();
      if (ctx->exhausted()) return std::nullopt;
    }
    // Views whose range covers the cursor, widest reach first.
    struct Covering {
      ViewId view;
      RangeBound hi;  // assigned subinterval's upper bound
    };
    std::vector<Covering> covering;
    for (ViewId v : candidates) {
      ValueRange vrange = ViewRangeOn(*catalog_, views_->view(v),
                                      part_table, column.column);
      // The view must start at or before the cursor...
      if (LowerBoundTighter(vrange.lo, cursor)) continue;
      // ...and reach it.
      if (!cursor.is_infinite) {
        RangeBound point{cursor.value, cursor.inclusive, false};
        if (UpperBoundTighter(vrange.hi, point)) continue;
      }
      RangeBound hi =
          UpperBoundTighter(vrange.hi, target.hi) ? vrange.hi : target.hi;
      // The assigned subinterval must be non-empty (progress guarantee).
      ValueRange sub;
      sub.lo = cursor;
      sub.hi = hi;
      if (sub.IsEmpty()) continue;
      covering.push_back(Covering{v, hi});
    }
    std::sort(covering.begin(), covering.end(),
              [](const Covering& a, const Covering& b) {
                return UpperBoundTighter(b.hi, a.hi);  // widest reach first
              });

    bool advanced = false;
    for (const Covering& c : covering) {
      // Restrict the query to the assigned subinterval and run the
      // ordinary single-view matcher; its compensating predicates then
      // clip the leg exactly to the subinterval, which keeps the legs
      // disjoint even when the views overlap.
      SpjgQuery leg_query = query;
      if (!cursor.is_infinite) {
        leg_query.conjuncts.push_back(Expr::MakeCompare(
            cursor.inclusive ? CompareOp::kGe : CompareOp::kGt, part_col,
            Expr::MakeLiteral(cursor.value)));
      }
      if (!c.hi.is_infinite) {
        leg_query.conjuncts.push_back(Expr::MakeCompare(
            c.hi.inclusive ? CompareOp::kLe : CompareOp::kLt, part_col,
            Expr::MakeLiteral(c.hi.value)));
      }
      MatchResult r = matcher_.Match(leg_query, views_->view(c.view));
      if (!r.ok()) continue;
      result.legs.push_back(std::move(*r.substitute));
      if (SameUpper(c.hi, target.hi)) {
        // Full cover. A single leg means an ordinary substitute exists;
        // report only genuine unions.
        if (result.legs.size() < 2) return std::nullopt;
        return result;
      }
      // Advance: the next subinterval starts just past this leg's end.
      cursor = NormalizeLower(RangeBound{c.hi.value, !c.hi.inclusive, false},
                              part_type);
      advanced = true;
      break;
    }
    if (!advanced) return std::nullopt;  // gap in coverage
  }
  return std::nullopt;  // leg budget exhausted
}

}  // namespace mvopt
