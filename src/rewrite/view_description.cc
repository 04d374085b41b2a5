#include "rewrite/view_description.h"

#include <algorithm>
#include <initializer_list>
#include <span>
#include <unordered_map>

#include "expr/classify.h"
#include "rewrite/equiv.h"
#include "rewrite/fk_graph.h"
#include "rewrite/match_program.h"
#include "rewrite/range.h"

namespace mvopt {

namespace {

template <typename T>
void SortUnique(std::vector<T>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

// Catalog ids of every member of `col`'s equivalence class.
std::vector<uint32_t> ClassCatalogIds(const SpjgQuery& q,
                                      const EquivalenceClasses& ec,
                                      ColumnRefId col) {
  std::vector<uint32_t> out;
  int cls = ec.ClassOf(col);
  for (ColumnRefId m : ec.ClassMembers(cls)) {
    out.push_back(CatalogColId(q.tables[m.table_ref].table, m.column));
  }
  SortUnique(&out);
  return out;
}

// Appends the sorted unique catalog ids of `col`'s equivalence class to
// `into` as one class, collecting and sorting them there once, then
// copies that class to the end of each list in `also`.
void AppendClass(const SpjgQuery& q, const EquivalenceClasses& ec,
                 ColumnRefId col, ColumnClassList* into,
                 std::initializer_list<ColumnClassList*> also = {}) {
  const size_t begin = into->atoms.size();
  for (ColumnRefId m : ec.ClassMembers(ec.ClassOf(col))) {
    into->atoms.push_back(CatalogColId(q.tables[m.table_ref].table, m.column));
  }
  const auto first = into->atoms.begin() + static_cast<std::ptrdiff_t>(begin);
  std::sort(first, into->atoms.end());
  into->atoms.erase(std::unique(first, into->atoms.end()), into->atoms.end());
  into->ends.push_back(static_cast<uint32_t>(into->atoms.size()));
  for (ColumnClassList* list : also) {
    list->atoms.insert(list->atoms.end(),
                       into->atoms.begin() + static_cast<std::ptrdiff_t>(begin),
                       into->atoms.end());
    list->ends.push_back(static_cast<uint32_t>(list->atoms.size()));
  }
}

// Shared analysis: classified predicates + equivalence classes + ranges.
struct Analysis {
  ClassifiedPredicates preds;
  EquivalenceClasses ec;
  RangeMap ranges;
};

Analysis Analyze(const Catalog& catalog, const SpjgQuery& q) {
  Analysis a;
  a.preds = ClassifyConjuncts(q.conjuncts);
  a.ec = EquivalenceClasses(catalog, q.tables);
  a.ec.AddEqualities(a.preds.equalities);
  a.ranges = RangeMap::Build(a.preds.ranges, a.ec);
  return a;
}

}  // namespace

EstimateShape BuildEstimateShape(const SpjgQuery& query,
                                 const ClassifiedPredicates& preds,
                                 const EquivalenceClasses& ec) {
  // The estimator folds each column's predicates into one interval and
  // multiplies the intervals in this map's iteration order. Floating-
  // point products depend on their order, so the groups keep it.
  std::unordered_map<uint64_t, std::vector<RangePred>> by_column;
  for (const auto& p : preds.ranges) {
    uint64_t key = (static_cast<uint64_t>(p.column.table_ref) << 32) |
                   static_cast<uint32_t>(p.column.column);
    by_column[key].push_back(p);
  }

  // Every part is sized exactly: a registered view keeps its shape for
  // the catalog's lifetime.
  const std::span<const int32_t> classes = ec.NontrivialClasses();
  EstimateShape::Sizes sizes;
  sizes.tables = static_cast<uint32_t>(query.tables.size());
  for (int cls : classes) {
    sizes.class_members += static_cast<uint32_t>(ec.ClassMembers(cls).size());
  }
  sizes.classes = static_cast<uint32_t>(classes.size());
  sizes.range_groups = static_cast<uint32_t>(by_column.size());
  sizes.group_columns = static_cast<uint32_t>(query.group_by.size());
  EstimateShape shape(sizes);

  for (size_t t = 0; t < query.tables.size(); ++t) {
    shape.tables()[t] = query.tables[t].table;
  }
  uint32_t end = 0;
  for (size_t i = 0; i < classes.size(); ++i) {
    for (ColumnRefId m : ec.ClassMembers(classes[i])) {
      shape.class_members()[end++] = m;
    }
    shape.class_end()[i] = end;
  }
  shape.ranges.reserve(preds.ranges.size());
  size_t group = 0;
  for (auto& [key, plist] : by_column) {
    (void)key;
    for (RangePred& p : plist) shape.ranges.push_back(std::move(p));
    shape.range_end()[group++] = static_cast<uint32_t>(shape.ranges.size());
  }

  shape.residuals = static_cast<int32_t>(preds.residual.size());
  shape.is_aggregate = query.is_aggregate;
  for (size_t i = 0; i < query.group_by.size(); ++i) {
    const ExprPtr& g = query.group_by[i];
    shape.group_columns()[i] = g->kind() == ExprKind::kColumnRef
                                   ? g->column_ref()
                                   : ColumnRefId{};
  }
  return shape;
}

EstimateShape BuildEstimateShape(const Catalog& catalog,
                                 const SpjgQuery& query) {
  ClassifiedPredicates preds = ClassifyConjuncts(query.conjuncts);
  EquivalenceClasses ec(catalog, query.tables);
  ec.AddEqualities(preds.equalities);
  return BuildEstimateShape(query, preds, ec);
}

ViewDescription DescribeView(const Catalog& catalog,
                             const ViewDefinition& view,
                             EstimateShape* estimate_shape) {
  const SpjgQuery& q = view.query();
  Analysis a = Analyze(catalog, q);
  if (estimate_shape != nullptr) {
    *estimate_shape = BuildEstimateShape(q, a.preds, a.ec);
  }

  ViewDescription d;
  d.id = view.id();
  d.is_aggregate = q.is_aggregate;

  for (const auto& tr : q.tables) d.source_tables.push_back(tr.table);
  SortUnique(&d.source_tables);

  // Hub (§4.2.2): eliminate as far as possible, protecting tables with a
  // range or residual predicate on a column in a trivial equivalence
  // class. Nullable FKs are treated optimistically (see FkGraphOptions).
  uint64_t protect = 0;
  auto protect_column = [&](ColumnRefId col) {
    if (a.ec.IsTrivial(col)) protect |= 1ULL << col.table_ref;
  };
  for (const auto& p : a.preds.ranges) protect_column(p.column);
  for (const auto& r : a.preds.residual) {
    std::vector<ColumnRefId> cols;
    r->CollectColumnRefs(&cols);
    for (ColumnRefId c : cols) protect_column(c);
  }
  FkGraphOptions fk_options;
  fk_options.optimistic_nullable_fk = true;
  FkJoinGraph graph =
      FkJoinGraph::Build(catalog, q.tables, a.ec, fk_options, nullptr);
  uint64_t hub_mask = graph.ComputeHub(protect);
  for (int t = 0; t < q.num_tables(); ++t) {
    if (hub_mask & (1ULL << t)) d.hub.push_back(q.tables[t].table);
  }
  SortUnique(&d.hub);

  // Output columns / expressions (§4.2.3, §4.2.7).
  for (const auto& o : q.outputs) {
    if (o.expr->kind() == ExprKind::kColumnRef) {
      auto ids = ClassCatalogIds(q, a.ec, o.expr->column_ref());
      d.extended_output_columns.insert(d.extended_output_columns.end(),
                                       ids.begin(), ids.end());
    } else {
      d.output_expr_texts.push_back(ComputeShape(*o.expr).text);
    }
  }
  SortUnique(&d.extended_output_columns);
  SortUnique(&d.output_expr_texts);

  // Residual texts (§4.2.6).
  for (const auto& r : a.preds.residual) {
    d.residual_texts.push_back(ComputeShape(*r).text);
  }
  SortUnique(&d.residual_texts);

  // Range constraint lists (§4.2.5).
  for (const auto& [cls, range] : a.ranges.ranges()) {
    (void)range;
    const auto& members = a.ec.ClassMembers(cls);
    std::vector<uint32_t> ids;
    for (ColumnRefId m : members) {
      ids.push_back(CatalogColId(q.tables[m.table_ref].table, m.column));
    }
    SortUnique(&ids);
    if (members.size() == 1) d.reduced_range_columns.push_back(ids[0]);
    d.range_constrained_classes.push_back(std::move(ids));
  }
  SortUnique(&d.reduced_range_columns);

  // Grouping lists (§4.2.4, §4.2.8).
  if (q.is_aggregate) {
    for (const auto& g : q.group_by) {
      d.grouping_expr_texts.push_back(ComputeShape(*g).text);
      if (g->kind() == ExprKind::kColumnRef) {
        auto ids = ClassCatalogIds(q, a.ec, g->column_ref());
        d.extended_grouping_columns.insert(d.extended_grouping_columns.end(),
                                           ids.begin(), ids.end());
      }
    }
    SortUnique(&d.extended_grouping_columns);
    SortUnique(&d.grouping_expr_texts);
  }
  return d;
}

void QueryDescription::clear() {
  is_aggregate = false;
  source_tables.clear();
  output_column_classes_spj.clear();
  output_column_classes_agg.clear();
  output_expr_texts.clear();
  agg_expr_texts.clear();
  residual_texts.clear();
  extended_range_columns.clear();
  grouping_column_classes.clear();
  grouping_expr_texts.clear();
}

void DescribeQuery(const Catalog& catalog, const MatchProbeContext& analysis,
                   QueryDescription* out) {
  const SpjgQuery& query = *analysis.query;
  // Query-side search keys include check constraints, mirroring their
  // role in the matcher's antecedent (§3.1.2) so the filter conditions
  // stay necessary conditions — also when the matcher runs without them
  // and the probe's analysis therefore left them out.
  if (!analysis.checks_classified) {
    for (const TableRef& tr : query.tables) {
      if (!catalog.table(tr.table).check_constraints().empty()) {
        DescribeQuery(catalog,
                      AnalyzeProbeQuery(catalog, query, MatchOptions()), out);
        return;
      }
    }
  }
  const EquivalenceClasses& ec = analysis.query_ec;

  QueryDescription& d = *out;
  d.clear();
  d.is_aggregate = query.is_aggregate;
  for (const auto& tr : query.tables) d.source_tables.push_back(tr.table);
  SortUnique(&d.source_tables);

  for (size_t k = 0; k < query.outputs.size(); ++k) {
    const Expr& e = *query.outputs[k].expr;
    const MatchProbeContext::OutputInfo& info = analysis.outputs[k];
    if (e.kind() == ExprKind::kColumnRef) {
      AppendClass(query, ec, e.column_ref(), &d.output_column_classes_spj,
                  {&d.output_column_classes_agg});
      continue;
    }
    if (e.kind() == ExprKind::kAggregate) {
      // Normalized aggregate text requirement for aggregation views (SUM
      // text for SUM and AVG; none for count(*), which every aggregation
      // view has).
      if (e.agg_kind() != AggKind::kCountStar) {
        const std::string arg = info.is_aggregate
                                    ? info.agg_arg_shape.text
                                    : ComputeShape(*e.child(0)).text;
        const bool sum = e.agg_kind() == AggKind::kSum ||
                         e.agg_kind() == AggKind::kAvg;
        d.agg_expr_texts.push_back(
            std::string(sum ? "sum" : AggKindName(e.agg_kind())) + "(" +
            arg + ")");
      }
      // SPJ views compute the aggregate by compensation; a simple column
      // argument must then be routable.
      if (e.agg_kind() != AggKind::kCountStar &&
          e.child(0)->kind() == ExprKind::kColumnRef) {
        AppendClass(query, ec, e.child(0)->column_ref(),
                    &d.output_column_classes_spj);
      }
      continue;
    }
    // Complex non-aggregate output: paper-faithful textual condition.
    d.output_expr_texts.push_back(
        info.value.kind == MatchProbeContext::CachedExpr::Kind::kComplex
            ? info.value.shape.text
            : ComputeShape(e).text);
  }
  for (size_t i = 0; i < query.group_by.size(); ++i) {
    const ExprPtr& g = query.group_by[i];
    d.grouping_expr_texts.push_back(analysis.group_by_shapes[i].text);
    if (g->kind() == ExprKind::kColumnRef) {
      AppendClass(query, ec, g->column_ref(), &d.output_column_classes_spj,
                  {&d.output_column_classes_agg, &d.grouping_column_classes});
    }
  }
  SortUnique(&d.output_expr_texts);
  SortUnique(&d.agg_expr_texts);
  SortUnique(&d.grouping_expr_texts);

  for (const ExprShape& r : analysis.query_residual_shapes) {
    d.residual_texts.push_back(r.text);
  }
  for (const ExprShape& r : analysis.check_residual_shapes) {
    d.residual_texts.push_back(r.text);
  }
  SortUnique(&d.residual_texts);

  // Every member of every range-constrained class.
  auto add_range_class = [&](const RangePred& p) {
    for (ColumnRefId m : ec.ClassMembers(ec.ClassOf(p.column))) {
      d.extended_range_columns.push_back(
          CatalogColId(query.tables[m.table_ref].table, m.column));
    }
  };
  for (const RangePred& p : analysis.query_preds.ranges) add_range_class(p);
  for (const RangePred& p : analysis.check_preds.ranges) add_range_class(p);
  SortUnique(&d.extended_range_columns);
}

QueryDescription DescribeQuery(const Catalog& catalog,
                               const SpjgQuery& query) {
  QueryDescription d;
  DescribeQuery(catalog, AnalyzeProbeQuery(catalog, query, MatchOptions()),
                &d);
  return d;
}

}  // namespace mvopt
