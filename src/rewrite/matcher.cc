#include "rewrite/matcher.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <set>
#include <unordered_map>

#include "expr/classify.h"
#include "rewrite/equiv.h"
#include "rewrite/fk_graph.h"
#include "rewrite/range.h"

namespace mvopt {

namespace {

MatchResult Reject(RejectReason reason) {
  MatchResult r;
  r.reason = reason;
  return r;
}

/// Enumerates injective mappings of query table refs onto view table refs
/// with equal catalog table ids. mapping[view_ref] = query slot, or -1 for
/// unmapped (extra) view refs. Stops after `limit` mappings.
class MappingEnumerator {
 public:
  MappingEnumerator(const SpjgQuery& query, const SpjgQuery& view, int limit)
      : limit_(limit) {
    // Group refs by table id.
    std::map<TableId, std::vector<int32_t>> query_refs;
    std::map<TableId, std::vector<int32_t>> view_refs;
    for (int32_t i = 0; i < query.num_tables(); ++i) {
      query_refs[query.tables[i].table].push_back(i);
    }
    for (int32_t i = 0; i < view.num_tables(); ++i) {
      view_refs[view.tables[i].table].push_back(i);
    }
    feasible_ = true;
    for (const auto& [tid, qrefs] : query_refs) {
      auto it = view_refs.find(tid);
      if (it == view_refs.end() || it->second.size() < qrefs.size()) {
        feasible_ = false;
        return;
      }
      groups_.push_back(Group{qrefs, it->second});
    }
    num_view_refs_ = view.num_tables();
  }

  bool feasible() const { return feasible_; }

  /// All candidate mappings (capped).
  std::vector<std::vector<int32_t>> Enumerate() const {
    std::vector<std::vector<int32_t>> out;
    if (!feasible_) return out;
    std::vector<int32_t> mapping(num_view_refs_, -1);
    Recurse(0, &mapping, &out);
    return out;
  }

 private:
  struct Group {
    std::vector<int32_t> query_refs;
    std::vector<int32_t> view_refs;
  };

  void Recurse(size_t g, std::vector<int32_t>* mapping,
               std::vector<std::vector<int32_t>>* out) const {
    if (static_cast<int>(out->size()) >= limit_) return;
    if (g == groups_.size()) {
      out->push_back(*mapping);
      return;
    }
    const Group& group = groups_[g];
    // Choose an injective assignment of query_refs into view_refs.
    std::vector<int32_t> chosen(group.query_refs.size(), -1);
    AssignGroup(group, 0, &chosen, mapping, g, out);
  }

  void AssignGroup(const Group& group, size_t qi, std::vector<int32_t>* chosen,
                   std::vector<int32_t>* mapping, size_t g,
                   std::vector<std::vector<int32_t>>* out) const {
    if (static_cast<int>(out->size()) >= limit_) return;
    if (qi == group.query_refs.size()) {
      Recurse(g + 1, mapping, out);
      return;
    }
    for (int32_t vref : group.view_refs) {
      if ((*mapping)[vref] != -1) continue;
      (*mapping)[vref] = group.query_refs[qi];
      (*chosen)[qi] = vref;
      AssignGroup(group, qi + 1, chosen, mapping, g, out);
      (*mapping)[vref] = -1;
      (*chosen)[qi] = -1;
    }
  }

  std::vector<Group> groups_;
  int num_view_refs_ = 0;
  int limit_;
  bool feasible_ = false;
};

/// Shape-based expression match "taking into account column equivalences"
/// (§3.1.2): texts equal, positionally paired columns equivalent.
bool ShapesEquivalent(const ExprShape& a, const ExprShape& b,
                      const EquivalenceClasses& classes) {
  if (a.text != b.text) return false;
  if (a.columns.size() != b.columns.size()) return false;
  for (size_t i = 0; i < a.columns.size(); ++i) {
    if (!classes.AreEquivalent(a.columns[i], b.columns[i])) return false;
  }
  return true;
}

}  // namespace

MatchResult ViewMatcher::Match(const SpjgQuery& query,
                               const ViewDefinition& view) const {
  // Aggregated views cannot answer pure SPJ queries: grouping collapses
  // duplicate rows (§3.3 requirement 3).
  if (view.query().is_aggregate && !query.is_aggregate) {
    return Reject(RejectReason::kViewMoreAggregated);
  }
  MappingEnumerator enumerator(query, view.query(),
                               options_.max_table_mappings);
  if (!enumerator.feasible()) return Reject(RejectReason::kSourceTables);

  MatchResult last = Reject(RejectReason::kSourceTables);
  for (const auto& mapping : enumerator.Enumerate()) {
    MatchResult r = MatchWithMapping(query, view, mapping);
    if (r.ok()) return r;
    last = std::move(r);
  }
  return last;
}

MatchResult ViewMatcher::MatchWithMapping(
    const SpjgQuery& query, const ViewDefinition& view,
    const std::vector<int32_t>& view_to_slot) const {
  const SpjgQuery& vq = view.query();
  const int num_query_tables = query.num_tables();

  // ---- 1. Translate the view into the query's table-reference space.
  // Mapped view refs take their query slot; extra refs get fresh slots.
  std::vector<int32_t> slot_of(vq.num_tables());
  std::vector<TableRef> unified_tables = query.tables;
  std::vector<int32_t> extra_slots;
  for (int32_t v = 0; v < vq.num_tables(); ++v) {
    if (view_to_slot[v] >= 0) {
      slot_of[v] = view_to_slot[v];
    } else {
      slot_of[v] = static_cast<int32_t>(unified_tables.size());
      unified_tables.push_back(vq.tables[v]);
      extra_slots.push_back(slot_of[v]);
    }
  }

  std::vector<ExprPtr> view_conjuncts;
  view_conjuncts.reserve(vq.conjuncts.size());
  for (const auto& c : vq.conjuncts) {
    view_conjuncts.push_back(Expr::RemapTableRefs(c, slot_of));
  }
  ClassifiedPredicates view_preds = ClassifyConjuncts(view_conjuncts);
  ClassifiedPredicates query_preds = ClassifyConjuncts(query.conjuncts);

  // Check constraints (§3.1.2): constraints on the query's tables hold on
  // every row, so they strengthen the antecedent of Wq => Wv. Equalities
  // also hold on the view's rows (same base tables) and are applied to
  // both sides; ranges and residuals only strengthen the query side, and
  // are never emitted as compensating predicates (they are tautologies
  // over the view's rows). CHECKs accept NULLs, so they are not
  // null-rejecting.
  ClassifiedPredicates check_preds;
  if (options_.use_check_constraints) {
    std::vector<ExprPtr> check_conjuncts;
    for (size_t t = 0; t < unified_tables.size(); ++t) {
      for (const auto& c :
           catalog_->table(unified_tables[t].table).check_constraints()) {
        std::vector<int32_t> self = {static_cast<int32_t>(t)};
        check_conjuncts.push_back(Expr::RemapTableRefs(c, self));
      }
    }
    check_preds = ClassifyConjuncts(check_conjuncts);
  }

  // ---- 2. View equivalence classes over the unified table space.
  EquivalenceClasses view_ec(*catalog_, unified_tables);
  view_ec.AddEqualities(view_preds.equalities);
  view_ec.AddEqualities(check_preds.equalities);

  // Null-rejecting columns of the query (for the nullable-FK relaxation).
  std::vector<ColumnRefId> null_rejected;
  if (options_.allow_nullable_fk_with_null_rejection) {
    for (const auto& p : query_preds.ranges) null_rejected.push_back(p.column);
    for (const auto& p : query_preds.equalities) {
      null_rejected.push_back(p.lhs);
      null_rejected.push_back(p.rhs);
    }
    for (const auto& r : query_preds.residual) {
      std::vector<ColumnRefId> cols;
      r->CollectColumnRefs(&cols);
      for (ColumnRefId c : cols) {
        if (IsNullRejectingOn(*r, c)) null_rejected.push_back(c);
      }
    }
  }

  // ---- 3. Eliminate extra tables through cardinality-preserving joins.
  std::vector<FkJoinEdge> eliminated_edges;
  if (!extra_slots.empty()) {
    FkGraphOptions fk_options;
    fk_options.allow_nullable_fk_with_null_rejection =
        options_.allow_nullable_fk_with_null_rejection;
    FkJoinGraph graph = FkJoinGraph::Build(*catalog_, unified_tables, view_ec,
                                           fk_options, &null_rejected);
    uint64_t keep_mask = 0;
    for (int i = 0; i < num_query_tables; ++i) keep_mask |= 1ULL << i;
    auto edges = graph.EliminateAllExcept(keep_mask);
    if (!edges.has_value()) {
      return Reject(RejectReason::kExtraTableElimination);
    }
    eliminated_edges = std::move(*edges);
  }

  // ---- 4. Query equivalence classes, extended with the join conditions
  // of the eliminated edges (§3.2: "we merely simulate the addition of
  // extra tables by updating query equivalence classes").
  EquivalenceClasses query_ec(*catalog_, unified_tables);
  query_ec.AddEqualities(query_preds.equalities);
  query_ec.AddEqualities(check_preds.equalities);
  for (const FkJoinEdge& e : eliminated_edges) {
    for (size_t k = 0; k < e.fk->fk_columns.size(); ++k) {
      query_ec.AddEquality(ColumnRefId{e.from_ref, e.fk->fk_columns[k]},
                           ColumnRefId{e.to_ref, e.fk->key_columns[k]});
    }
  }

  // ---- Output-column routing infrastructure (§3.1.3, §3.1.4).
  // Simple view outputs by their source column in unified space; complex
  // view outputs by shape for exact-expression matching.
  struct SimpleOutput {
    ColumnRefId column;
    int ordinal;
  };
  std::vector<SimpleOutput> simple_outputs;
  struct ComplexOutput {
    ExprShape shape;
    int ordinal;
  };
  std::vector<ComplexOutput> complex_outputs;
  std::vector<ExprPtr> view_outputs_unified;
  for (size_t k = 0; k < vq.outputs.size(); ++k) {
    ExprPtr e = Expr::RemapTableRefs(vq.outputs[k].expr, slot_of);
    view_outputs_unified.push_back(e);
    if (e->kind() == ExprKind::kColumnRef) {
      simple_outputs.push_back({e->column_ref(), static_cast<int>(k)});
    } else {
      complex_outputs.push_back({ComputeShape(*e), static_cast<int>(k)});
    }
  }

  // Routes `col` to a simple view output equivalent under `ec`; -1 if none.
  auto route_column = [&](ColumnRefId col,
                          const EquivalenceClasses& ec) -> int {
    for (const auto& so : simple_outputs) {
      if (ec.AreEquivalent(so.column, col)) return so.ordinal;
    }
    return -1;
  };

  // Base-table backjoins (§7 extension, options_.enable_backjoins): if a
  // unique key of a view table is routable to view outputs (through the
  // *view* equivalence classes, so the key values in the view equal the
  // contributing base row's), the view can be re-joined to that table and
  // every column of the table becomes available as {1 + backjoin, col}.
  std::vector<BackjoinSpec> backjoins;
  std::vector<int32_t> backjoined_slot;
  auto backjoin_for_slot = [&](int32_t slot) -> int {
    for (size_t j = 0; j < backjoined_slot.size(); ++j) {
      if (backjoined_slot[j] == slot) return static_cast<int>(j);
    }
    const TableDef& t = catalog_->table(unified_tables[slot].table);
    for (const auto& key : t.unique_keys()) {
      std::vector<std::pair<int, ColumnOrdinal>> key_join;
      bool ok = true;
      for (ColumnOrdinal k : key) {
        int out = route_column(ColumnRefId{slot, k}, view_ec);
        if (out < 0) {
          ok = false;
          break;
        }
        key_join.emplace_back(out, k);
      }
      if (!ok) continue;
      backjoined_slot.push_back(slot);
      backjoins.push_back(BackjoinSpec{t.id(), std::move(key_join)});
      return static_cast<int>(backjoins.size()) - 1;
    }
    return -1;
  };
  // Routes `col` to a view output or (if enabled) a backjoined base
  // column; nullptr when neither is possible.
  auto route_extended = [&](ColumnRefId col,
                            const EquivalenceClasses& ec) -> ExprPtr {
    int out = route_column(col, ec);
    if (out >= 0) return Expr::MakeColumn(0, out);
    if (!options_.enable_backjoins) return nullptr;
    int j = backjoin_for_slot(col.table_ref);
    if (j >= 0) return Expr::MakeColumn(1 + j, col.column);
    int cls = ec.ClassOf(col);
    if (cls >= 0) {
      for (ColumnRefId m : ec.ClassMembers(cls)) {
        if (m.table_ref == col.table_ref) continue;
        j = backjoin_for_slot(m.table_ref);
        if (j >= 0) return Expr::MakeColumn(1 + j, m.column);
      }
    }
    return nullptr;
  };

  std::vector<ExprPtr> compensating;

  // ---- 5. Equijoin subsumption test (§3.1.2): every nontrivial view
  // equivalence class must be a subset of some query equivalence class.
  for (int vc : view_ec.NontrivialClasses()) {
    const auto& members = view_ec.ClassMembers(vc);
    int qc = query_ec.ClassOf(members[0]);
    for (size_t i = 1; i < members.size(); ++i) {
      if (query_ec.ClassOf(members[i]) != qc) {
        return Reject(RejectReason::kEquijoinSubsumption);
      }
    }
  }

  // Compensating column-equality predicates: whenever several view
  // classes map into one query class, chain them with equality
  // predicates, each routed through *view* equivalence classes.
  for (int qc = 0; qc < query_ec.NumClasses(); ++qc) {
    const auto& members = query_ec.ClassMembers(qc);
    if (members.size() < 2) continue;
    // Distinct view classes inside this query class, discovery order.
    std::vector<int> view_classes;
    for (ColumnRefId m : members) {
      int vc = view_ec.ClassOf(m);
      if (std::find(view_classes.begin(), view_classes.end(), vc) ==
          view_classes.end()) {
        view_classes.push_back(vc);
      }
    }
    if (view_classes.size() < 2) continue;
    // Route one output column per view class.
    std::vector<ExprPtr> routed;
    for (int vc : view_classes) {
      ExprPtr out = route_extended(view_ec.ClassMembers(vc)[0], view_ec);
      if (out == nullptr) {
        return Reject(RejectReason::kCompensationNotComputable);
      }
      routed.push_back(std::move(out));
    }
    for (size_t i = 0; i + 1 < routed.size(); ++i) {
      compensating.push_back(
          Expr::MakeCompare(CompareOp::kEq, routed[i], routed[i + 1]));
    }
  }

  // ---- 6. Range subsumption test (§3.1.2).
  RangeMap view_ranges = RangeMap::Build(view_preds.ranges, view_ec);
  RangeMap query_ranges = RangeMap::Build(query_preds.ranges, query_ec);
  // Check-strengthened ranges drive subsumption; the plain query ranges
  // drive compensation (check-implied bounds hold on the view's rows
  // already and need not — indeed must not — require output routing).
  std::vector<RangePred> checked_range_preds = query_preds.ranges;
  checked_range_preds.insert(checked_range_preds.end(),
                             check_preds.ranges.begin(),
                             check_preds.ranges.end());
  RangeMap query_ranges_checked =
      RangeMap::Build(checked_range_preds, query_ec);

  // Every constrained view range must contain the corresponding query
  // range (the query class containing the view class's columns).
  for (const auto& [vc, vrange] : view_ranges.ranges()) {
    ColumnRefId col = view_ec.ClassMembers(vc)[0];
    int qc = query_ec.ClassOf(col);
    ValueRange qrange = query_ranges_checked.Get(qc);
    if (!vrange.Contains(qrange)) {
      return Reject(RejectReason::kRangeSubsumption);
    }
  }

  // Compensating range predicates: for each constrained query class,
  // compare against the effective view range (intersection of the view
  // ranges of the view classes inside the query class) and enforce any
  // differing bound. Routed through *query* equivalence classes.
  for (const auto& [qc, qrange] : query_ranges.ranges()) {
    ValueRange effective;  // unconstrained
    const auto& members = query_ec.ClassMembers(qc);
    std::set<int> seen;
    for (ColumnRefId m : members) {
      int vc = view_ec.ClassOf(m);
      if (vc < 0 || !seen.insert(vc).second) continue;
      if (!view_ranges.HasConstraint(vc)) continue;
      ValueRange vr = view_ranges.Get(vc);
      // Intersect.
      if (!vr.lo.is_infinite) {
        effective.Apply(vr.lo.inclusive ? CompareOp::kGe : CompareOp::kGt,
                        vr.lo.value);
      }
      if (!vr.hi.is_infinite) {
        effective.Apply(vr.hi.inclusive ? CompareOp::kLe : CompareOp::kLt,
                        vr.hi.value);
      }
    }
    const bool need_lo = !qrange.SameLowerBound(effective);
    const bool need_hi = !qrange.SameUpperBound(effective);
    if (!need_lo && !need_hi) continue;
    ExprPtr col = route_extended(members[0], query_ec);
    if (col == nullptr) {
      return Reject(RejectReason::kCompensationNotComputable);
    }
    if (qrange.IsPoint()) {
      compensating.push_back(Expr::MakeCompare(
          CompareOp::kEq, col, Expr::MakeLiteral(qrange.lo.value)));
      continue;
    }
    if (need_lo && !qrange.lo.is_infinite) {
      compensating.push_back(Expr::MakeCompare(
          qrange.lo.inclusive ? CompareOp::kGe : CompareOp::kGt, col,
          Expr::MakeLiteral(qrange.lo.value)));
    }
    if (need_hi && !qrange.hi.is_infinite) {
      compensating.push_back(Expr::MakeCompare(
          qrange.hi.inclusive ? CompareOp::kLe : CompareOp::kLt, col,
          Expr::MakeLiteral(qrange.hi.value)));
    }
  }

  // ---- 7. Residual subsumption test (§3.1.2): every view residual must
  // match a query residual (shallow shape matching + column equivalence).
  std::vector<ExprShape> query_residual_shapes;
  query_residual_shapes.reserve(query_preds.residual.size());
  for (const auto& r : query_preds.residual) {
    query_residual_shapes.push_back(ComputeShape(*r));
  }
  std::vector<ExprShape> check_residual_shapes;
  for (const auto& r : check_preds.residual) {
    check_residual_shapes.push_back(ComputeShape(*r));
  }
  std::vector<bool> query_residual_matched(query_preds.residual.size(),
                                           false);
  for (const auto& vr : view_preds.residual) {
    ExprShape vshape = ComputeShape(*vr);
    bool matched = false;
    for (size_t i = 0; i < query_residual_shapes.size(); ++i) {
      if (ShapesEquivalent(vshape, query_residual_shapes[i], query_ec)) {
        query_residual_matched[i] = true;
        matched = true;
      }
    }
    // A check constraint in the antecedent can also discharge a view
    // residual (the view keeps rows the constraint guarantees anyway).
    if (!matched) {
      for (const auto& cs : check_residual_shapes) {
        if (ShapesEquivalent(vshape, cs, query_ec)) {
          matched = true;
          break;
        }
      }
    }
    if (!matched) return Reject(RejectReason::kResidualSubsumption);
  }

  // Unmatched query residuals must be applied to the view; route their
  // columns through query equivalence classes (§3.1.3 type 3; like the
  // paper's prototype we require simple column routing).
  for (size_t i = 0; i < query_preds.residual.size(); ++i) {
    if (query_residual_matched[i]) continue;
    ExprPtr routed = query_preds.residual[i]->RewriteColumns(
        [&](ColumnRefId col) -> ExprPtr {
          return route_extended(col, query_ec);
        });
    if (routed == nullptr) {
      return Reject(RejectReason::kCompensationNotComputable);
    }
    compensating.push_back(std::move(routed));
  }

  // ---- 8. Output expressions (§3.1.4). `compute_expr` rewrites a query
  // expression (aggregate-free) over the view's output columns: exact
  // match against a view output first, then per-column routing.
  auto compute_expr = [&](const ExprPtr& e) -> ExprPtr {
    if (e->kind() == ExprKind::kLiteral) return e;
    if (e->kind() == ExprKind::kColumnRef) {
      return route_extended(e->column_ref(), query_ec);
    }
    ExprShape shape = ComputeShape(*e);
    for (const auto& co : complex_outputs) {
      if (ShapesEquivalent(shape, co.shape, query_ec)) {
        return Expr::MakeColumn(0, co.ordinal);
      }
    }
    return e->RewriteColumns([&](ColumnRefId col) -> ExprPtr {
      return route_extended(col, query_ec);
    });
  };

  Substitute sub;
  sub.view_id = view.id();
  sub.predicates = std::move(compensating);

  if (!query.is_aggregate) {
    // SPJ query from SPJ view (aggregated views were rejected up front).
    for (const auto& o : query.outputs) {
      ExprPtr routed = compute_expr(o.expr);
      if (routed == nullptr) return Reject(RejectReason::kOutputNotComputable);
      sub.outputs.push_back(OutputExpr{o.name, std::move(routed)});
    }
    sub.needs_aggregation = false;
    sub.backjoins = std::move(backjoins);
    MatchResult result;
    result.substitute = std::move(sub);
    return result;
  }

  // ---- 9. Aggregation handling (§3.3).
  const bool view_aggregated = vq.is_aggregate;
  bool regroup = true;

  // Find the count(*) output of an aggregation view.
  int count_ordinal = -1;
  // View group-by expressions in unified space + their output ordinals.
  struct ViewGrouping {
    ExprShape shape;
    int ordinal;  // view output ordinal (group-by exprs are outputs)
  };
  std::vector<ViewGrouping> view_groupings;
  // View SUM/MIN/MAX outputs by the shape of their argument.
  struct ViewAgg {
    AggKind kind;
    ExprShape arg_shape;
    int ordinal;
  };
  std::vector<ViewAgg> view_aggs;

  if (view_aggregated) {
    for (size_t k = 0; k < view_outputs_unified.size(); ++k) {
      const ExprPtr& e = view_outputs_unified[k];
      if (e->kind() == ExprKind::kAggregate) {
        if (e->agg_kind() == AggKind::kCountStar) {
          count_ordinal = static_cast<int>(k);
        } else {
          view_aggs.push_back({e->agg_kind(), ComputeShape(*e->child(0)),
                               static_cast<int>(k)});
        }
      }
    }
    for (const auto& g : vq.group_by) {
      ExprPtr unified = Expr::RemapTableRefs(g, slot_of);
      ExprShape shape = ComputeShape(*unified);
      // Locate the output ordinal carrying this grouping expression.
      int ordinal = -1;
      for (size_t k = 0; k < view_outputs_unified.size(); ++k) {
        if (view_outputs_unified[k]->Equals(*unified)) {
          ordinal = static_cast<int>(k);
          break;
        }
      }
      assert(ordinal >= 0 && "validated views output all grouping exprs");
      view_groupings.push_back({std::move(shape), ordinal});
    }

    // Grouping containment (§3.3 requirement 3): every query group-by
    // expression must match some view group-by expression. With backjoins
    // enabled, the Yan–Larson relaxation applies (§6): it suffices that
    // the view's grouping functionally determines the expression — and
    // everything routable for an aggregation view is per-group constant
    // (simple outputs are grouping columns; backjoins are keyed by them),
    // so "routable" is exactly "functionally determined".
    bool fd_extra_grouping = false;
    std::vector<bool> view_grouping_used(view_groupings.size(), false);
    for (const auto& g : query.group_by) {
      ExprShape shape = ComputeShape(*g);
      // Prefer an unused view grouping: equated grouping columns (e.g.
      // l_orderkey and o_orderkey under the join) all match the same
      // query expression, and greedily re-consuming the first would
      // force a needless regroup.
      int match = -1;
      for (size_t k = 0; k < view_groupings.size(); ++k) {
        if (ShapesEquivalent(shape, view_groupings[k].shape, query_ec)) {
          match = static_cast<int>(k);
          if (!view_grouping_used[k]) break;
        }
      }
      bool found = match >= 0;
      if (found) view_grouping_used[match] = true;
      if (!found) {
        bool determined = false;
        if (options_.enable_backjoins) {
          ExprPtr routed =
              g->RewriteColumns([&](ColumnRefId col) -> ExprPtr {
                return route_extended(col, query_ec);
              });
          determined = routed != nullptr;
        }
        if (!determined) return Reject(RejectReason::kGroupingMismatch);
        fd_extra_grouping = true;
      }
    }
    // Equal grouping lists -> no further aggregation needed.
    regroup = fd_extra_grouping;
    for (bool used : view_grouping_used) {
      if (!used) {
        regroup = true;
        break;
      }
    }
  }

  // Compensating group-by: the query's grouping expressions over view
  // outputs. Needed when the view is unaggregated or strictly coarser
  // grouping is required.
  const bool needs_aggregation = !view_aggregated || regroup;
  if (needs_aggregation) {
    for (const auto& g : query.group_by) {
      ExprPtr routed = compute_expr(g);
      if (routed == nullptr) return Reject(RejectReason::kOutputNotComputable);
      sub.group_by.push_back(std::move(routed));
    }
  }
  sub.needs_aggregation = needs_aggregation;

  // Query outputs: grouping expressions and aggregates.
  for (const auto& o : query.outputs) {
    const Expr& e = *o.expr;
    if (e.kind() != ExprKind::kAggregate) {
      ExprPtr routed = compute_expr(o.expr);
      if (routed == nullptr) return Reject(RejectReason::kOutputNotComputable);
      sub.outputs.push_back(OutputExpr{o.name, std::move(routed)});
      continue;
    }
    const AggKind kind = e.agg_kind();
    if (!options_.allow_min_max &&
        (kind == AggKind::kMin || kind == AggKind::kMax)) {
      return Reject(RejectReason::kAggregateNotComputable);
    }
    if (!view_aggregated) {
      // Compensating aggregation over an SPJ view: rewrite the argument.
      ExprPtr arg;
      if (kind != AggKind::kCountStar) {
        arg = compute_expr(e.child(0));
        if (arg == nullptr) {
          return Reject(RejectReason::kAggregateNotComputable);
        }
      }
      sub.outputs.push_back(
          OutputExpr{o.name, Expr::MakeAggregate(kind, std::move(arg))});
      continue;
    }
    // Aggregation view.
    auto find_view_agg = [&](AggKind k, const Expr& arg) -> int {
      ExprShape shape = ComputeShape(arg);
      for (const auto& va : view_aggs) {
        if (va.kind == k && ShapesEquivalent(shape, va.arg_shape, query_ec)) {
          return va.ordinal;
        }
      }
      return -1;
    };
    switch (kind) {
      case AggKind::kCountStar: {
        if (count_ordinal < 0) {
          return Reject(RejectReason::kAggregateNotComputable);
        }
        ExprPtr cnt = Expr::MakeColumn(0, count_ordinal);
        sub.outputs.push_back(OutputExpr{
            o.name, regroup ? Expr::MakeAggregate(AggKind::kSum, cnt) : cnt});
        break;
      }
      case AggKind::kSum:
      case AggKind::kMin:
      case AggKind::kMax: {
        int ordinal = find_view_agg(kind, *e.child(0));
        if (ordinal < 0) {
          return Reject(RejectReason::kAggregateNotComputable);
        }
        ExprPtr col = Expr::MakeColumn(0, ordinal);
        ExprPtr out = col;
        if (regroup) {
          // SUM rolls up with SUM; MIN/MAX with themselves.
          out = Expr::MakeAggregate(kind == AggKind::kSum ? AggKind::kSum
                                                          : kind,
                                    col);
        }
        sub.outputs.push_back(OutputExpr{o.name, std::move(out)});
        break;
      }
      case AggKind::kAvg: {
        // AVG(E) = SUM(E) / count (§3.3).
        int sum_ordinal = find_view_agg(AggKind::kSum, *e.child(0));
        if (sum_ordinal < 0 || count_ordinal < 0) {
          return Reject(RejectReason::kAggregateNotComputable);
        }
        ExprPtr sum_col = Expr::MakeColumn(0, sum_ordinal);
        ExprPtr cnt_col = Expr::MakeColumn(0, count_ordinal);
        ExprPtr out;
        if (regroup) {
          out = Expr::MakeArith(
              ArithOp::kDiv, Expr::MakeAggregate(AggKind::kSum, sum_col),
              Expr::MakeAggregate(AggKind::kSum, cnt_col));
        } else {
          out = Expr::MakeArith(ArithOp::kDiv, sum_col, cnt_col);
        }
        sub.outputs.push_back(OutputExpr{o.name, std::move(out)});
        break;
      }
    }
  }

  sub.backjoins = std::move(backjoins);
  MatchResult result;
  result.substitute = std::move(sub);
  return result;
}

}  // namespace mvopt
