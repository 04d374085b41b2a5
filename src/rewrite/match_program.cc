#include "rewrite/match_program.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

namespace mvopt {

namespace {

/// The §3.1.2 decomposition of a table's check constraints, remapped onto
/// slot `t` (constraints are written against table_ref 0).
void AppendCheckConjuncts(const Catalog& catalog, TableId table, int32_t slot,
                          std::vector<ExprPtr>* out) {
  for (const auto& c : catalog.table(table).check_constraints()) {
    std::vector<int32_t> self = {slot};
    out->push_back(Expr::RemapTableRefs(c, self));
  }
}

/// `shape`, when given, is `e`'s already computed shape.
MatchProbeContext::CachedExpr CacheExpr(const ExprPtr& e,
                                        const ExprShape* shape = nullptr) {
  MatchProbeContext::CachedExpr cached;
  cached.expr = e;
  if (e->kind() == ExprKind::kLiteral) {
    cached.kind = MatchProbeContext::CachedExpr::Kind::kLiteral;
  } else if (e->kind() == ExprKind::kColumnRef) {
    cached.kind = MatchProbeContext::CachedExpr::Kind::kColumn;
    cached.column = e->column_ref();
  } else {
    cached.kind = MatchProbeContext::CachedExpr::Kind::kComplex;
    cached.shape = shape != nullptr ? *shape : ComputeShape(*e);
  }
  return cached;
}

}  // namespace

MatchProbeContext AnalyzeProbeQuery(const Catalog& catalog,
                                    const SpjgQuery& query,
                                    const MatchOptions& options) {
  MatchProbeContext ctx;
  ctx.query = &query;
  ctx.is_aggregate = query.is_aggregate;
  ctx.checks_classified = options.use_check_constraints;
  const int32_t num_slots = query.num_tables();

  // The predicate decomposition and equivalence classes the generic
  // matcher builds per candidate (matcher.cc step 4) — for compiled
  // candidates the unified table list IS the query's FROM list, so one
  // copy serves every candidate of the probe.
  ctx.query_preds = ClassifyConjuncts(query.conjuncts);
  if (options.use_check_constraints) {
    std::vector<ExprPtr> check_conjuncts;
    for (int32_t t = 0; t < num_slots; ++t) {
      AppendCheckConjuncts(catalog, query.tables[t].table, t,
                           &check_conjuncts);
    }
    ctx.check_preds = ClassifyConjuncts(check_conjuncts);
  }
  ctx.query_ec = EquivalenceClasses(catalog, query.tables);
  ctx.query_ec.AddEqualities(ctx.query_preds.equalities);
  ctx.query_ec.AddEqualities(ctx.check_preds.equalities);
  // Built here, so the probe's later reads (possibly from several
  // threads) never rebuild them.
  (void)ctx.query_ec.NumClasses();

  ctx.query_residual_shapes.reserve(ctx.query_preds.residual.size());
  for (const auto& r : ctx.query_preds.residual) {
    ctx.query_residual_shapes.push_back(ComputeShape(*r));
  }
  for (const auto& r : ctx.check_preds.residual) {
    ctx.check_residual_shapes.push_back(ComputeShape(*r));
  }

  ctx.outputs.reserve(query.outputs.size());
  for (const auto& o : query.outputs) {
    MatchProbeContext::OutputInfo info;
    // Aggregate outputs only exist in aggregate queries (SpjgBuilder
    // invariant); for SPJ queries every output goes through the plain
    // compute_expr path, exactly like the generic matcher.
    if (query.is_aggregate && o.expr->kind() == ExprKind::kAggregate) {
      info.is_aggregate = true;
      info.agg_kind = o.expr->agg_kind();
      if (info.agg_kind != AggKind::kCountStar) {
        info.value = CacheExpr(o.expr->child(0));
        info.agg_arg_shape = ComputeShape(*o.expr->child(0));
      }
    } else {
      info.value = CacheExpr(o.expr);
    }
    ctx.outputs.push_back(std::move(info));
  }
  ctx.group_by_shapes.reserve(query.group_by.size());
  for (const auto& g : query.group_by) {
    ctx.group_by_shapes.push_back(ComputeShape(*g));
  }
  return ctx;
}

void CompleteMatchProbeContext(const MatchOptions& options,
                               MatchProbeContext* ctx) {
  const SpjgQuery& query = *ctx->query;
  const int32_t num_slots = query.num_tables();
  ctx->slot_by_table.reserve(static_cast<size_t>(num_slots));
  for (int32_t t = 0; t < num_slots; ++t) {
    ctx->slot_by_table.emplace_back(query.tables[t].table, t);
  }
  std::sort(ctx->slot_by_table.begin(), ctx->slot_by_table.end());
  for (size_t i = 1; i < ctx->slot_by_table.size(); ++i) {
    if (ctx->slot_by_table[i].first == ctx->slot_by_table[i - 1].first) {
      ctx->has_dup_tables = true;
      break;
    }
  }

  ctx->query_ranges = RangeMap::Build(ctx->query_preds.ranges, ctx->query_ec);
  std::vector<RangePred> checked = ctx->query_preds.ranges;
  checked.insert(checked.end(), ctx->check_preds.ranges.begin(),
                 ctx->check_preds.ranges.end());
  ctx->query_ranges_checked = RangeMap::Build(checked, ctx->query_ec);

  // The §3.2 nullable-FK relaxation set, built exactly as the generic
  // matcher builds it (matcher.cc step 2) — query predicate columns are
  // in query slot space there too, so membership carries over verbatim.
  if (options.allow_nullable_fk_with_null_rejection) {
    for (const auto& p : ctx->query_preds.ranges) {
      ctx->null_rejected.push_back(p.column);
    }
    for (const auto& p : ctx->query_preds.equalities) {
      ctx->null_rejected.push_back(p.lhs);
      ctx->null_rejected.push_back(p.rhs);
    }
    for (const auto& r : ctx->query_preds.residual) {
      std::vector<ColumnRefId> cols;
      r->CollectColumnRefs(&cols);
      for (ColumnRefId c : cols) {
        if (IsNullRejectingOn(*r, c)) ctx->null_rejected.push_back(c);
      }
    }
  }

  ctx->group_by.reserve(query.group_by.size());
  for (size_t i = 0; i < query.group_by.size(); ++i) {
    ctx->group_by.push_back(
        CacheExpr(query.group_by[i], &ctx->group_by_shapes[i]));
  }
}

MatchProbeContext BuildMatchProbeContext(const Catalog& catalog,
                                         const SpjgQuery& query,
                                         const MatchOptions& options) {
  MatchProbeContext ctx = AnalyzeProbeQuery(catalog, query, options);
  CompleteMatchProbeContext(options, &ctx);
  return ctx;
}

std::shared_ptr<const MatchProgram> CompileMatchProgram(
    const Catalog& catalog, const ViewDefinition& view,
    const MatchOptions& options) {
  // The compiled envelope. Backjoin mode routes columns through base-
  // table re-joins the program does not model; a self-join FROM list
  // reintroduces the mapping enumeration the envelope removes; and a
  // zero mapping budget makes the generic matcher reject every pair
  // (Enumerate() returns nothing), which the program must not outrun.
  if (options.enable_backjoins) return nullptr;
  if (options.max_table_mappings < 1) return nullptr;
  const SpjgQuery& vq = view.query();
  // The §3.2 pre-check manipulates slot bitmasks (as FkJoinGraph does).
  if (vq.num_tables() > 64) return nullptr;
  {
    std::vector<TableId> ids;
    ids.reserve(vq.tables.size());
    for (const TableRef& t : vq.tables) ids.push_back(t.table);
    std::sort(ids.begin(), ids.end());
    if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
      return nullptr;
    }
  }

  auto program = std::make_shared<MatchProgram>();
  program->view_id = view.id();
  program->view_is_aggregate = vq.is_aggregate;
  program->allow_min_max = options.allow_min_max;

  const int32_t num_slots = vq.num_tables();
  program->table_of_slot.reserve(static_cast<size_t>(num_slots));
  program->num_columns_of_slot.reserve(static_cast<size_t>(num_slots));
  for (const TableRef& t : vq.tables) {
    program->table_of_slot.push_back(t.table);
    program->num_columns_of_slot.push_back(
        catalog.table(t.table).num_columns());
  }

  // View-side §3.1 structures in view slot space (the identity mapping;
  // kBindRouting permutes them into query slots at probe time). Check
  // equalities join the view classes exactly as in matcher.cc: the
  // constraints hold on the view's rows too.
  ClassifiedPredicates view_preds = ClassifyConjuncts(vq.conjuncts);
  // Check constraints, classified per slot (classification is per
  // conjunct, so the slots' lists concatenate to the matcher's list).
  if (options.use_check_constraints) {
    for (int32_t t = 0; t < num_slots; ++t) {
      std::vector<ExprPtr> own;
      AppendCheckConjuncts(catalog, vq.tables[t].table, t, &own);
      if (own.empty()) continue;
      program->slot_checks.resize(static_cast<size_t>(num_slots));
      ClassifiedPredicates cp = ClassifyConjuncts(own);
      MatchProgram::SlotChecks& sc =
          program->slot_checks[static_cast<size_t>(t)];
      sc.equalities = std::move(cp.equalities);
      sc.ranges = std::move(cp.ranges);
      for (const auto& r : cp.residual) {
        sc.residual_shapes.push_back(ComputeShape(*r));
      }
    }
  }
  EquivalenceClasses view_ec(program->num_columns_of_slot);
  view_ec.AddEqualities(view_preds.equalities);
  for (const MatchProgram::SlotChecks& sc : program->slot_checks) {
    view_ec.AddEqualities(sc.equalities);
  }

  const std::span<const int32_t> col_base =
      view_ec.col_base().first(static_cast<size_t>(num_slots));
  program->col_base.assign(col_base.begin(), col_base.end());
  program->class_of.assign(view_ec.class_of().begin(),
                           view_ec.class_of().end());
  program->num_classes = view_ec.NumClasses();
  program->class_begin.reserve(static_cast<size_t>(program->num_classes) + 1);
  program->class_members.reserve(program->class_of.size());
  program->class_begin.push_back(0);
  for (int32_t cls = 0; cls < program->num_classes; ++cls) {
    const std::span<const ColumnRefId> members = view_ec.ClassMembers(cls);
    program->class_members.insert(program->class_members.end(),
                                  members.begin(), members.end());
    program->class_begin.push_back(
        static_cast<int32_t>(program->class_members.size()));
  }

  // Outputs and the §3.1.3 routing table: first simple output per view
  // class, in output order — identical to route_column's first-match
  // scan under view equivalences.
  program->route_of_class.assign(static_cast<size_t>(program->num_classes),
                                 -1);
  for (size_t k = 0; k < vq.outputs.size(); ++k) {
    const ExprPtr& e = vq.outputs[k].expr;
    if (e->kind() == ExprKind::kColumnRef) {
      program->simple_outputs.push_back(
          {e->column_ref(), static_cast<int32_t>(k)});
      int32_t& route =
          program->route_of_class[static_cast<size_t>(program->class_of[
              static_cast<size_t>(program->col_base[static_cast<size_t>(
                                      e->column_ref().table_ref)] +
                                  e->column_ref().column)])];
      if (route < 0) route = static_cast<int32_t>(k);
    } else {
      program->complex_outputs.push_back(
          {ComputeShape(*e), static_cast<int32_t>(k)});
    }
  }

  RangeMap view_ranges = RangeMap::Build(view_preds.ranges, view_ec);
  program->range_index_of_class.assign(
      static_cast<size_t>(program->num_classes), -1);
  for (const auto& [cls, range] : view_ranges.ranges()) {
    program->range_index_of_class[static_cast<size_t>(cls)] =
        static_cast<int32_t>(program->ranges.size());
    program->ranges.push_back({cls, range});
  }

  program->residual_shapes.reserve(view_preds.residual.size());
  for (const auto& r : view_preds.residual) {
    program->residual_shapes.push_back(ComputeShape(*r));
  }

  if (vq.is_aggregate) {
    for (size_t k = 0; k < vq.outputs.size(); ++k) {
      const ExprPtr& e = vq.outputs[k].expr;
      if (e->kind() != ExprKind::kAggregate) continue;
      if (e->agg_kind() == AggKind::kCountStar) {
        program->count_ordinal = static_cast<int32_t>(k);
      } else {
        program->aggs.push_back({e->agg_kind(), ComputeShape(*e->child(0)),
                                 static_cast<int32_t>(k)});
      }
    }
    for (const auto& g : vq.group_by) {
      int32_t ordinal = -1;
      for (size_t k = 0; k < vq.outputs.size(); ++k) {
        if (vq.outputs[k].expr->Equals(*g)) {
          ordinal = static_cast<int32_t>(k);
          break;
        }
      }
      assert(ordinal >= 0 && "validated views output all grouping exprs");
      program->groupings.push_back({ComputeShape(*g), ordinal});
    }
  }

  // §3.2 pool: candidate FK join edges between view slots, admitted by
  // the same five tests as FkJoinGraph::Build — declared foreign key,
  // referenced columns cover a unique key, every FK column equated with
  // its key column under the view equivalence classes — except
  // non-nullness, which is deferred per column: the edge becomes
  // probe-active only when the query null-rejects each nullable FK
  // column (the relaxation the oracle applies with the query in hand).
  // With the relaxation off, nullable-FK candidates can never activate
  // and are dropped here, exactly as Build drops them.
  for (int32_t i = 0; i < num_slots; ++i) {
    const TableDef& ti = catalog.table(vq.tables[i].table);
    for (const ForeignKeyDef& fk : ti.foreign_keys()) {
      for (int32_t j = 0; j < num_slots; ++j) {
        if (i == j || fk.referenced_table != vq.tables[j].table) continue;
        const TableDef& tj = catalog.table(vq.tables[j].table);
        if (!tj.CoversUniqueKey(fk.key_columns)) continue;
        MatchProgram::FkEdgeCandidate cand;
        cand.from_slot = i;
        cand.to_slot = j;
        bool ok = true;
        for (size_t k = 0; k < fk.fk_columns.size(); ++k) {
          const ColumnRefId fcol{i, fk.fk_columns[k]};
          const ColumnRefId kcol{j, fk.key_columns[k]};
          if (!view_ec.AreEquivalent(fcol, kcol)) {
            ok = false;
            break;
          }
          if (!ti.column(fk.fk_columns[k]).not_null) {
            if (!options.allow_nullable_fk_with_null_rejection) {
              ok = false;
              break;
            }
            cand.nullable_fk_cols.push_back(fcol);
          }
          cand.columns.emplace_back(fk.fk_columns[k], fk.key_columns[k]);
        }
        if (ok) program->fk_edge_candidates.push_back(std::move(cand));
      }
    }
  }

  // The instruction stream: the generic matcher's test order, unrolled
  // per view class / range / residual.
  program->insns.push_back({MatchOp::kCheckAggCompat});
  program->insns.push_back({MatchOp::kCheckTableSet});
  program->insns.push_back({MatchOp::kCheckExtraTables});
  program->insns.push_back({MatchOp::kBindRouting});
  for (int cls : view_ec.NontrivialClasses()) {
    program->insns.push_back({MatchOp::kCheckEquivClass, cls});
  }
  program->insns.push_back({MatchOp::kEmitEqualityCompensation});
  for (size_t i = 0; i < program->ranges.size(); ++i) {
    program->insns.push_back(
        {MatchOp::kCheckRangeSubsumes, static_cast<int32_t>(i)});
  }
  program->insns.push_back({MatchOp::kEmitRangeCompensation});
  for (size_t i = 0; i < program->residual_shapes.size(); ++i) {
    program->insns.push_back(
        {MatchOp::kCheckResidualSubsumes, static_cast<int32_t>(i)});
  }
  program->insns.push_back({MatchOp::kEmitResidualCompensation});
  program->insns.push_back({MatchOp::kEmitOutputs});
  program->insns.push_back({MatchOp::kCheckGrouping});
  program->insns.push_back({MatchOp::kEmitGroupBy});
  program->insns.push_back({MatchOp::kEmitAggOutputs});
  program->insns.push_back({MatchOp::kAccept});
  return program;
}

namespace {

/// The query-slot members of one query class, slot-major.
using MemberSpan = std::span<const ColumnRefId>;

/// Executor state threaded through the switch loop.
struct ExecState {
  const MatchProgram& program;
  const MatchProbeContext& ctx;
  MatchProgramScratch& scratch;
  Substitute sub;
  bool regroup = true;
  bool needs_aggregation = true;
  /// The candidate's unified slot space (matcher.cc step 1) is the query
  /// slots [0, num_qslots), then the eliminated extra view slots in view
  /// order.
  const int32_t num_qslots;
  /// Size of the query class id space: the query's class count, or the node
  /// count once kCheckExtraTables extended the classes.
  int32_t num_class_ids;
  /// Set by kCheckExtraTables when the candidate's extra slots were
  /// eliminated: classes are then read through scratch.xclass. `merged`
  /// when an added equality joined two query classes, so class members
  /// and query ranges are regathered per extended class.
  bool extended = false;
  bool merged = false;

  ExecState(const MatchProgram& p, const MatchProbeContext& c,
            MatchProgramScratch& s)
      : program(p),
        ctx(c),
        scratch(s),
        num_qslots(static_cast<int32_t>(c.slot_by_table.size())),
        num_class_ids(c.query_ec.NumClasses()) {}

  /// The unified-slot image of a view-space column reference.
  ColumnRefId ToQuery(ColumnRefId view_col) const {
    return ColumnRefId{scratch.qslot_of_vslot[static_cast<size_t>(
                           view_col.table_ref)],
                       view_col.column};
  }

  /// Dense view-class id of a query-slot column.
  int32_t ViewClassOf(ColumnRefId query_col) const {
    const int32_t vslot =
        scratch.vslot_of_qslot[static_cast<size_t>(query_col.table_ref)];
    return program.class_of[static_cast<size_t>(
        program.col_base[static_cast<size_t>(vslot)] + query_col.column)];
  }

  /// The class-extension node of a unified-space column.
  int32_t NodeOf(ColumnRefId col) const {
    if (col.table_ref < num_qslots) return ctx.QueryClassOf(col);
    return scratch.xnode_base[static_cast<size_t>(col.table_ref -
                                                  num_qslots)] +
           col.column;
  }

  /// The query class of a unified-space column: the generic matcher's
  /// query_ec.ClassOf, including the kCheckExtraTables extension.
  int32_t QueryClassOf(ColumnRefId col) const {
    if (!extended) return ctx.QueryClassOf(col);
    return scratch.xclass[static_cast<size_t>(NodeOf(col))];
  }

  /// The query-slot members of class `qc`. The compensation scans that
  /// read them never need an extended class's extra-slot members: each
  /// joined its class through FK or CHECK equalities, which hold in the
  /// view classes too, so it shares a view class with a query-slot
  /// member — or its class has no query-slot member and one view class.
  MemberSpan QueryMembers(int32_t qc) const {
    if (!merged) return ctx.query_ec.ClassMembers(qc);
    const int32_t begin = scratch.member_begin[static_cast<size_t>(qc)];
    const int32_t end = scratch.member_begin[static_cast<size_t>(qc) + 1];
    return MemberSpan(scratch.members.data() + begin,
                      static_cast<size_t>(end - begin));
  }

  int32_t Find(int32_t node) {
    std::vector<int32_t>& parent = scratch.xclass;
    while (parent[static_cast<size_t>(node)] != node) {
      parent[static_cast<size_t>(node)] =
          parent[static_cast<size_t>(parent[static_cast<size_t>(node)])];
      node = parent[static_cast<size_t>(node)];
    }
    return node;
  }

  /// Union by smallest node: a parent always has a smaller id than its
  /// children, and a class is labelled by its smallest node.
  void Unite(ColumnRefId a, ColumnRefId b) {
    const int32_t ra = Find(NodeOf(a));
    const int32_t rb = Find(NodeOf(b));
    if (ra < rb) {
      scratch.xclass[static_cast<size_t>(rb)] = ra;
    } else if (rb < ra) {
      scratch.xclass[static_cast<size_t>(ra)] = rb;
    }
  }

  /// matcher.cc steps 1 and 4 for a candidate whose extra slots were all
  /// eliminated: number the extra slots after the query's, in view order,
  /// and extend the query classes with their columns, their CHECK
  /// equalities and the join equalities of the eliminated edges — each
  /// extra slot's one active incoming edge (a slot with an outgoing edge
  /// cannot be eliminated before that edge's target, so every in-edge of
  /// an eliminated slot is alive when it goes, and it goes with one).
  void ExtendQueryClasses() {
    const size_t num_vslots = program.table_of_slot.size();
    scratch.xnode_base.clear();
    int32_t num_nodes = ctx.query_ec.NumClasses();
    for (size_t v = 0; v < num_vslots; ++v) {
      if (scratch.qslot_of_vslot[v] >= 0) continue;
      scratch.qslot_of_vslot[v] =
          num_qslots + static_cast<int32_t>(scratch.xnode_base.size());
      scratch.vslot_of_qslot.push_back(static_cast<int32_t>(v));
      scratch.xnode_base.push_back(num_nodes);
      num_nodes += program.num_columns_of_slot[v];
    }
    scratch.xclass.resize(static_cast<size_t>(num_nodes));
    std::iota(scratch.xclass.begin(), scratch.xclass.end(), 0);
    extended = true;
    num_class_ids = num_nodes;
    for (size_t u = static_cast<size_t>(num_qslots);
         u < scratch.vslot_of_qslot.size(); ++u) {
      const int32_t v = scratch.vslot_of_qslot[u];
      if (!program.slot_checks.empty()) {
        for (const ColumnEqualityPred& eq :
             program.slot_checks[static_cast<size_t>(v)].equalities) {
          Unite(ToQuery(eq.lhs), ToQuery(eq.rhs));
        }
      }
      const MatchProgram::FkEdgeCandidate& edge =
          program.fk_edge_candidates[static_cast<size_t>(
              scratch.fk_in_edge[static_cast<size_t>(v)])];
      for (const auto& [fk_col, key_col] : edge.columns) {
        Unite(ToQuery(ColumnRefId{edge.from_slot, fk_col}),
              ToQuery(ColumnRefId{v, key_col}));
      }
    }
    // Parents have smaller ids, so one ascending pass points every node
    // at its class label.
    for (size_t n = 0; n < scratch.xclass.size(); ++n) {
      scratch.xclass[n] =
          scratch.xclass[static_cast<size_t>(scratch.xclass[n])];
    }
    const int32_t num_classes = ctx.query_ec.NumClasses();
    for (int32_t qc = 0; qc < num_classes; ++qc) {
      if (scratch.xclass[static_cast<size_t>(qc)] != qc) {
        merged = true;
        break;
      }
    }
    if (!merged) return;
    // Two query classes became one: regather the query-slot members per
    // class label, slot-major (a counting sort over the query columns).
    const std::span<const int32_t> class_of = ctx.query_ec.class_of();
    const std::span<const int32_t> col_base = ctx.query_ec.col_base();
    std::vector<int32_t>& begin = scratch.member_begin;
    begin.assign(static_cast<size_t>(num_classes) + 1, 0);
    for (int32_t cls : class_of) {
      ++begin[static_cast<size_t>(scratch.xclass[static_cast<size_t>(cls)]) +
              1];
    }
    for (size_t c = 1; c < begin.size(); ++c) begin[c] += begin[c - 1];
    scratch.members.resize(class_of.size());
    for (int32_t t = 0; t < num_qslots; ++t) {
      const int32_t first = col_base[static_cast<size_t>(t)];
      const int32_t last = col_base[static_cast<size_t>(t) + 1];
      for (int32_t i = first; i < last; ++i) {
        const int32_t label = scratch.xclass[static_cast<size_t>(
            class_of[static_cast<size_t>(i)])];
        scratch.members[static_cast<size_t>(
            begin[static_cast<size_t>(label)]++)] = ColumnRefId{t, i - first};
      }
    }
    // The fill advanced each start to the next class's; shift them back.
    for (size_t c = begin.size() - 1; c > 0; --c) begin[c] = begin[c - 1];
    begin[0] = 0;
  }

  /// Folds the predicates of `preds` on query class `qc` into `r` in
  /// order, as RangeMap::Build over the extended classes does. Columns
  /// are in view slot space when `view_space`, else in query space.
  void FoldRanges(const std::vector<RangePred>& preds, bool view_space,
                  int32_t qc, ValueRange* r) const {
    for (const RangePred& p : preds) {
      if (QueryClassOf(view_space ? ToQuery(p.column) : p.column) == qc) {
        r->Apply(p.op, p.bound);
      }
    }
  }

  /// The check-strengthened query range of class `qc` (matcher.cc step
  /// 6): query ranges, then the check ranges of the query slots and of
  /// the eliminated extra slots.
  ValueRange CheckedRange(int32_t qc) const {
    if (!extended) return ctx.query_ranges_checked.Get(qc);
    ValueRange r;
    FoldRanges(ctx.query_preds.ranges, false, qc, &r);
    FoldRanges(ctx.check_preds.ranges, false, qc, &r);
    if (!program.slot_checks.empty()) {
      for (size_t u = static_cast<size_t>(num_qslots);
           u < scratch.vslot_of_qslot.size(); ++u) {
        FoldRanges(program.slot_checks[static_cast<size_t>(
                                           scratch.vslot_of_qslot[u])]
                       .ranges,
                   true, qc, &r);
      }
    }
    return r;
  }

  /// route_column through QUERY equivalences (§3.1.3): first simple view
  /// output in query class `qc`, via the kBindRouting table.
  int32_t RouteClass(int32_t qc) const {
    if (scratch.route_stamp[static_cast<size_t>(qc)] != scratch.stamp) {
      return -1;
    }
    return scratch.route_of_qclass[static_cast<size_t>(qc)];
  }

  int32_t RouteQuery(ColumnRefId query_col) const {
    return RouteClass(QueryClassOf(query_col));
  }

  /// ShapesEquivalent with `b` in view space and `a` in query space (in
  /// view space too when `a_in_view`).
  bool ShapesEquivalentViewB(const ExprShape& a, const ExprShape& b,
                             bool a_in_view = false) const {
    if (a.text != b.text) return false;
    if (a.columns.size() != b.columns.size()) return false;
    for (size_t i = 0; i < a.columns.size(); ++i) {
      const ColumnRefId ac = a_in_view ? ToQuery(a.columns[i]) : a.columns[i];
      if (QueryClassOf(ac) != QueryClassOf(ToQuery(b.columns[i]))) {
        return false;
      }
    }
    return true;
  }

  /// True if a CHECK residual of an eliminated extra slot discharges the
  /// view residual `vshape` (the query slots' are in ctx).
  bool ExtraCheckResidualMatches(const ExprShape& vshape) const {
    if (!extended || program.slot_checks.empty()) return false;
    for (size_t u = static_cast<size_t>(num_qslots);
         u < scratch.vslot_of_qslot.size(); ++u) {
      for (const ExprShape& cs :
           program.slot_checks[static_cast<size_t>(scratch.vslot_of_qslot[u])]
               .residual_shapes) {
        if (ShapesEquivalentViewB(cs, vshape, /*a_in_view=*/true)) {
          return true;
        }
      }
    }
    return false;
  }

  /// Equality compensation for query class `qc` (matcher.cc step 5):
  /// chain the distinct view classes inside it, each routed through VIEW
  /// equivalences (the precompiled route_of_class). False when one is
  /// not routable.
  bool EmitEqualityCompensation(int32_t qc) {
    const MemberSpan members = QueryMembers(qc);
    if (members.size() < 2) return true;
    scratch.dist_vclasses.clear();
    for (ColumnRefId m : members) {
      const int32_t vc = ViewClassOf(m);
      if (std::find(scratch.dist_vclasses.begin(), scratch.dist_vclasses.end(),
                    vc) == scratch.dist_vclasses.end()) {
        scratch.dist_vclasses.push_back(vc);
      }
    }
    if (scratch.dist_vclasses.size() < 2) return true;
    scratch.routed.clear();
    for (int32_t vc : scratch.dist_vclasses) {
      const int32_t out = program.route_of_class[static_cast<size_t>(vc)];
      if (out < 0) return false;
      scratch.routed.push_back(Expr::MakeColumn(0, out));
    }
    for (size_t i = 0; i + 1 < scratch.routed.size(); ++i) {
      sub.predicates.push_back(Expr::MakeCompare(
          CompareOp::kEq, scratch.routed[i], scratch.routed[i + 1]));
    }
    return true;
  }

  /// Range compensation for constrained query class `qc` (matcher.cc
  /// step 6): intersect the view ranges of the distinct view classes
  /// inside it, enforce any differing bound, routed through query
  /// equivalences. False when a needed bound is not routable.
  bool EmitRangeCompensation(int32_t qc, const ValueRange& qrange) {
    ValueRange effective;  // unconstrained
    if (++scratch.vclass_counter == 0) {
      std::fill(scratch.vclass_stamp.begin(), scratch.vclass_stamp.end(), 0u);
      scratch.vclass_counter = 1;
    }
    for (ColumnRefId m : QueryMembers(qc)) {
      const int32_t vc = ViewClassOf(m);
      uint32_t& seen = scratch.vclass_stamp[static_cast<size_t>(vc)];
      if (seen == scratch.vclass_counter) continue;
      seen = scratch.vclass_counter;
      const int32_t idx = program.range_index_of_class[static_cast<size_t>(vc)];
      if (idx < 0) continue;
      const ValueRange& vr = program.ranges[static_cast<size_t>(idx)].range;
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
    if (!need_lo && !need_hi) return true;
    const int32_t out = RouteClass(qc);
    if (out < 0) return false;
    ExprPtr col = Expr::MakeColumn(0, out);
    if (qrange.IsPoint()) {
      sub.predicates.push_back(Expr::MakeCompare(
          CompareOp::kEq, col, Expr::MakeLiteral(qrange.lo.value)));
      return true;
    }
    if (need_lo && !qrange.lo.is_infinite) {
      sub.predicates.push_back(Expr::MakeCompare(
          qrange.lo.inclusive ? CompareOp::kGe : CompareOp::kGt, col,
          Expr::MakeLiteral(qrange.lo.value)));
    }
    if (need_hi && !qrange.hi.is_infinite) {
      sub.predicates.push_back(Expr::MakeCompare(
          qrange.hi.inclusive ? CompareOp::kLe : CompareOp::kLt, col,
          Expr::MakeLiteral(qrange.hi.value)));
    }
    return true;
  }

  /// compute_expr (§3.1.4) over a cached query expression: literal
  /// shared, column routed, complex matched against complex view outputs
  /// then routed per column.
  ExprPtr ComputeExpr(const MatchProbeContext::CachedExpr& e) const {
    using Kind = MatchProbeContext::CachedExpr::Kind;
    switch (e.kind) {
      case Kind::kLiteral:
        return e.expr;
      case Kind::kColumn: {
        const int32_t out = RouteQuery(e.column);
        return out >= 0 ? Expr::MakeColumn(0, out) : nullptr;
      }
      case Kind::kComplex:
        break;
    }
    for (const auto& co : program.complex_outputs) {
      if (ShapesEquivalentViewB(e.shape, co.shape)) {
        return Expr::MakeColumn(0, co.ordinal);
      }
    }
    return e.expr->RewriteColumns([this](ColumnRefId col) -> ExprPtr {
      const int32_t out = RouteQuery(col);
      return out >= 0 ? Expr::MakeColumn(0, out) : nullptr;
    });
  }

  /// find_view_agg (§3.3): first view aggregate of `kind` whose argument
  /// shape matches under query equivalences.
  int32_t FindViewAgg(AggKind kind, const ExprShape& arg_shape) const {
    for (const auto& va : program.aggs) {
      if (va.kind == kind && ShapesEquivalentViewB(arg_shape, va.arg_shape)) {
        return va.ordinal;
      }
    }
    return -1;
  }
};

MatchResult Reject(RejectReason reason) {
  MatchResult r;
  r.reason = reason;
  return r;
}

}  // namespace

MatchResult ExecuteMatchProgram(const MatchProgram& program,
                                const MatchProbeContext& ctx,
                                MatchProgramScratch& scratch) {
  ExecState st(program, ctx, scratch);
  const SpjgQuery& query = *ctx.query;
  st.sub.view_id = program.view_id;

  for (const MatchInsn& insn : program.insns) {
    switch (insn.op) {
      case MatchOp::kCheckAggCompat: {
        // Aggregated views cannot answer pure SPJ queries (§3.3
        // requirement 3) — checked before anything else, like Match().
        if (program.view_is_aggregate && !ctx.is_aggregate) {
          return Reject(RejectReason::kViewMoreAggregated);
        }
        break;
      }

      case MatchOp::kCheckTableSet: {
        // The feasibility screen of the mapping enumerator: every query
        // table id needs at least as many view references. A compiled
        // view has one reference per id, so any duplicate query id — or
        // any query id the view lacks — is infeasible. Extra view tables
        // are legal; kCheckExtraTables rules on them next.
        if (ctx.has_dup_tables) return Reject(RejectReason::kSourceTables);
        const size_t num_vslots = program.table_of_slot.size();
        const size_t num_qslots = ctx.slot_by_table.size();
        scratch.qslot_of_vslot.assign(num_vslots, -1);
        scratch.vslot_of_qslot.assign(num_qslots, -1);
        for (const auto& [tid, qslot] : ctx.slot_by_table) {
          int32_t vslot = -1;
          for (size_t v = 0; v < num_vslots; ++v) {
            if (program.table_of_slot[v] == tid) {
              vslot = static_cast<int32_t>(v);
              break;
            }
          }
          if (vslot < 0) return Reject(RejectReason::kSourceTables);
          scratch.qslot_of_vslot[static_cast<size_t>(vslot)] = qslot;
          scratch.vslot_of_qslot[static_cast<size_t>(qslot)] = vslot;
        }
        break;
      }

      case MatchOp::kCheckExtraTables: {
        // §3.2: extra view tables must be eliminable through
        // cardinality-preserving joins, or the candidate is dead. The
        // elimination fixpoint runs here over the precompiled edge pool
        // (edges conditioned on nullable FK columns activate only when
        // the probe null-rejects them); its verdict equals the oracle's
        // because the oracle's unified-space graph is isomorphic to the
        // view-space one and the fixpoint is labeling-independent. On
        // success the eliminated tables' equalities extend the query
        // classes, and the ops below read them through the extension.
        const size_t num_vslots = program.table_of_slot.size();
        if (num_vslots == ctx.slot_by_table.size()) break;
        uint64_t keep = 0;
        for (size_t v = 0; v < num_vslots; ++v) {
          if (scratch.qslot_of_vslot[v] >= 0) keep |= 1ULL << v;
        }
        scratch.fk_edges.clear();
        scratch.fk_active_to.assign(num_vslots, 0);
        scratch.fk_in_edge.assign(num_vslots, -1);
        for (size_t i = 0; i < program.fk_edge_candidates.size(); ++i) {
          const MatchProgram::FkEdgeCandidate& cand =
              program.fk_edge_candidates[i];
          uint64_t& row =
              scratch.fk_active_to[static_cast<size_t>(cand.from_slot)];
          const uint64_t to_bit = 1ULL << cand.to_slot;
          if (row & to_bit) continue;  // slot pair already active
          bool active = true;
          for (ColumnRefId c : cand.nullable_fk_cols) {
            const int32_t q =
                scratch.qslot_of_vslot[static_cast<size_t>(c.table_ref)];
            // Extra-slot FK columns (q < 0) can never be null-rejected
            // by the query; the oracle reaches the same conclusion.
            const ColumnRefId qcol{q, c.column};
            if (q < 0 ||
                std::find(ctx.null_rejected.begin(), ctx.null_rejected.end(),
                          qcol) == ctx.null_rejected.end()) {
              active = false;
              break;
            }
          }
          if (!active) continue;
          row |= to_bit;
          scratch.fk_edges.push_back(
              FkJoinEdge{cand.from_slot, cand.to_slot, nullptr});
          scratch.fk_in_edge[static_cast<size_t>(cand.to_slot)] =
              static_cast<int32_t>(i);
        }
        const uint64_t alive = FkJoinGraph::AliveAfterElimination(
            static_cast<int>(num_vslots), scratch.fk_edges, keep);
        if (alive != keep) {
          return Reject(RejectReason::kExtraTableElimination);
        }
        st.ExtendQueryClasses();
        break;
      }

      case MatchOp::kBindRouting: {
        // Per-candidate routing table: first simple view output per
        // QUERY equivalence class, in output order — route_column's
        // first-match scan under query equivalences, inverted.
        const size_t num_class_ids = static_cast<size_t>(st.num_class_ids);
        if (scratch.route_stamp.size() < num_class_ids) {
          scratch.route_stamp.resize(num_class_ids, 0);
          scratch.route_of_qclass.resize(num_class_ids, -1);
        }
        if (++scratch.stamp == 0) {
          std::fill(scratch.route_stamp.begin(), scratch.route_stamp.end(),
                    0u);
          scratch.stamp = 1;
        }
        for (const auto& so : program.simple_outputs) {
          const int32_t qc = st.QueryClassOf(st.ToQuery(so.column));
          uint32_t& seen = scratch.route_stamp[static_cast<size_t>(qc)];
          if (seen != scratch.stamp) {
            seen = scratch.stamp;
            scratch.route_of_qclass[static_cast<size_t>(qc)] = so.ordinal;
          }
        }
        scratch.query_residual_matched.assign(
            ctx.query_residual_shapes.size(), 0);
        if (scratch.vclass_stamp.size() <
            static_cast<size_t>(program.num_classes)) {
          scratch.vclass_stamp.resize(static_cast<size_t>(program.num_classes),
                                      0);
        }
        break;
      }

      case MatchOp::kCheckEquivClass: {
        // §3.1.2 equijoin subsumption: this (nontrivial) view class must
        // lie inside one query class.
        const std::span<const ColumnRefId> members =
            program.ClassMembers(insn.a);
        const int32_t qc = st.QueryClassOf(st.ToQuery(members[0]));
        for (size_t i = 1; i < members.size(); ++i) {
          if (st.QueryClassOf(st.ToQuery(members[i])) != qc) {
            return Reject(RejectReason::kEquijoinSubsumption);
          }
        }
        break;
      }

      case MatchOp::kEmitEqualityCompensation: {
        // Per query class, ascending class id. Extended classes without
        // a query-slot member hold one view class and need nothing;
        // without a merge, neither does a one-member query class.
        if (!st.merged) {
          for (int qc : ctx.query_ec.NontrivialClasses()) {
            if (!st.EmitEqualityCompensation(qc)) {
              return Reject(RejectReason::kCompensationNotComputable);
            }
          }
          break;
        }
        for (int32_t qc = 0; qc < ctx.query_ec.NumClasses(); ++qc) {
          // A class merged into a smaller one was scanned with it.
          if (scratch.xclass[static_cast<size_t>(qc)] != qc) continue;
          if (!st.EmitEqualityCompensation(qc)) {
            return Reject(RejectReason::kCompensationNotComputable);
          }
        }
        break;
      }

      case MatchOp::kCheckRangeSubsumes: {
        // §3.1.2 range subsumption: the view range must contain the
        // check-strengthened query range of the enclosing query class.
        const MatchProgram::ClassRange& cr =
            program.ranges[static_cast<size_t>(insn.a)];
        const ColumnRefId col = program.ClassMembers(cr.cls)[0];
        const int32_t qc = st.QueryClassOf(st.ToQuery(col));
        if (!cr.range.Contains(st.CheckedRange(qc))) {
          return Reject(RejectReason::kRangeSubsumption);
        }
        break;
      }

      case MatchOp::kEmitRangeCompensation: {
        // Per constrained query class, ascending class id (RangeMap is
        // ordered). Without a merge the query classes keep their ids and
        // ranges; after one, the ranges are refolded per extended class.
        if (!st.merged) {
          for (const auto& [qc, qrange] : ctx.query_ranges.ranges()) {
            if (!st.EmitRangeCompensation(qc, qrange)) {
              return Reject(RejectReason::kCompensationNotComputable);
            }
          }
          break;
        }
        scratch.ranged_classes.clear();
        for (const RangePred& p : ctx.query_preds.ranges) {
          scratch.ranged_classes.push_back(st.QueryClassOf(p.column));
        }
        std::sort(scratch.ranged_classes.begin(), scratch.ranged_classes.end());
        scratch.ranged_classes.erase(
            std::unique(scratch.ranged_classes.begin(),
                        scratch.ranged_classes.end()),
            scratch.ranged_classes.end());
        for (int32_t qc : scratch.ranged_classes) {
          ValueRange qrange;
          st.FoldRanges(ctx.query_preds.ranges, false, qc, &qrange);
          if (!st.EmitRangeCompensation(qc, qrange)) {
            return Reject(RejectReason::kCompensationNotComputable);
          }
        }
        break;
      }

      case MatchOp::kCheckResidualSubsumes: {
        // §3.1.2 residual subsumption: this view residual must match a
        // query residual (marking every match) or a check residual.
        const ExprShape& vshape =
            program.residual_shapes[static_cast<size_t>(insn.a)];
        bool matched = false;
        for (size_t i = 0; i < ctx.query_residual_shapes.size(); ++i) {
          if (st.ShapesEquivalentViewB(ctx.query_residual_shapes[i],
                                       vshape)) {
            scratch.query_residual_matched[i] = 1;
            matched = true;
          }
        }
        if (!matched) {
          for (const ExprShape& cs : ctx.check_residual_shapes) {
            if (st.ShapesEquivalentViewB(cs, vshape)) {
              matched = true;
              break;
            }
          }
        }
        if (!matched) matched = st.ExtraCheckResidualMatches(vshape);
        if (!matched) return Reject(RejectReason::kResidualSubsumption);
        break;
      }

      case MatchOp::kEmitResidualCompensation: {
        // Unmatched query residuals are applied to the view, columns
        // routed through query equivalences.
        for (size_t i = 0; i < ctx.query_preds.residual.size(); ++i) {
          if (scratch.query_residual_matched[i]) continue;
          ExprPtr routed = ctx.query_preds.residual[i]->RewriteColumns(
              [&st](ColumnRefId col) -> ExprPtr {
                const int32_t out = st.RouteQuery(col);
                return out >= 0 ? Expr::MakeColumn(0, out) : nullptr;
              });
          if (routed == nullptr) {
            return Reject(RejectReason::kCompensationNotComputable);
          }
          st.sub.predicates.push_back(std::move(routed));
        }
        break;
      }

      case MatchOp::kEmitOutputs: {
        // SPJ-query outputs (§3.1.4); aggregate queries emit through
        // kEmitGroupBy/kEmitAggOutputs instead.
        if (ctx.is_aggregate) break;
        for (size_t k = 0; k < ctx.outputs.size(); ++k) {
          ExprPtr routed = st.ComputeExpr(ctx.outputs[k].value);
          if (routed == nullptr) {
            return Reject(RejectReason::kOutputNotComputable);
          }
          st.sub.outputs.push_back(
              OutputExpr{query.outputs[k].name, std::move(routed)});
        }
        st.sub.needs_aggregation = false;
        break;
      }

      case MatchOp::kCheckGrouping: {
        // §3.3 requirement 3: every query grouping expression matches a
        // view grouping expression, preferring unused ones so equated
        // grouping columns do not force a needless regroup.
        if (!ctx.is_aggregate) break;
        st.regroup = true;
        if (program.view_is_aggregate) {
          scratch.grouping_used.assign(program.groupings.size(), 0);
          for (const ExprShape& shape : ctx.group_by_shapes) {
            int match = -1;
            for (size_t k = 0; k < program.groupings.size(); ++k) {
              if (st.ShapesEquivalentViewB(shape,
                                           program.groupings[k].shape)) {
                match = static_cast<int>(k);
                if (!scratch.grouping_used[k]) break;
              }
            }
            if (match < 0) {
              return Reject(RejectReason::kGroupingMismatch);
            }
            scratch.grouping_used[static_cast<size_t>(match)] = 1;
          }
          st.regroup = false;
          for (char used : scratch.grouping_used) {
            if (!used) {
              st.regroup = true;
              break;
            }
          }
        }
        st.needs_aggregation = !program.view_is_aggregate || st.regroup;
        break;
      }

      case MatchOp::kEmitGroupBy: {
        if (!ctx.is_aggregate) break;
        if (st.needs_aggregation) {
          for (const auto& g : ctx.group_by) {
            ExprPtr routed = st.ComputeExpr(g);
            if (routed == nullptr) {
              return Reject(RejectReason::kOutputNotComputable);
            }
            st.sub.group_by.push_back(std::move(routed));
          }
        }
        st.sub.needs_aggregation = st.needs_aggregation;
        break;
      }

      case MatchOp::kEmitAggOutputs: {
        // §3.3 output emission: count(*) -> SUM(cnt) rollup, SUM/MIN/MAX
        // rollup, AVG = SUM/COUNT.
        if (!ctx.is_aggregate) break;
        for (size_t k = 0; k < ctx.outputs.size(); ++k) {
          const MatchProbeContext::OutputInfo& oi = ctx.outputs[k];
          const std::string& name = query.outputs[k].name;
          if (!oi.is_aggregate) {
            ExprPtr routed = st.ComputeExpr(oi.value);
            if (routed == nullptr) {
              return Reject(RejectReason::kOutputNotComputable);
            }
            st.sub.outputs.push_back(OutputExpr{name, std::move(routed)});
            continue;
          }
          const AggKind kind = oi.agg_kind;
          if (!program.allow_min_max &&
              (kind == AggKind::kMin || kind == AggKind::kMax)) {
            return Reject(RejectReason::kAggregateNotComputable);
          }
          if (!program.view_is_aggregate) {
            // Compensating aggregation over an SPJ view.
            ExprPtr arg;
            if (kind != AggKind::kCountStar) {
              arg = st.ComputeExpr(oi.value);
              if (arg == nullptr) {
                return Reject(RejectReason::kAggregateNotComputable);
              }
            }
            st.sub.outputs.push_back(OutputExpr{
                name, Expr::MakeAggregate(kind, std::move(arg))});
            continue;
          }
          switch (kind) {
            case AggKind::kCountStar: {
              if (program.count_ordinal < 0) {
                return Reject(RejectReason::kAggregateNotComputable);
              }
              ExprPtr cnt = Expr::MakeColumn(0, program.count_ordinal);
              st.sub.outputs.push_back(OutputExpr{
                  name, st.regroup ? Expr::MakeAggregate(AggKind::kSum, cnt)
                                   : cnt});
              break;
            }
            case AggKind::kSum:
            case AggKind::kMin:
            case AggKind::kMax: {
              const int32_t ordinal =
                  st.FindViewAgg(kind, oi.agg_arg_shape);
              if (ordinal < 0) {
                return Reject(RejectReason::kAggregateNotComputable);
              }
              ExprPtr col = Expr::MakeColumn(0, ordinal);
              ExprPtr out = col;
              if (st.regroup) {
                out = Expr::MakeAggregate(
                    kind == AggKind::kSum ? AggKind::kSum : kind, col);
              }
              st.sub.outputs.push_back(OutputExpr{name, std::move(out)});
              break;
            }
            case AggKind::kAvg: {
              const int32_t sum_ordinal =
                  st.FindViewAgg(AggKind::kSum, oi.agg_arg_shape);
              if (sum_ordinal < 0 || program.count_ordinal < 0) {
                return Reject(RejectReason::kAggregateNotComputable);
              }
              ExprPtr sum_col = Expr::MakeColumn(0, sum_ordinal);
              ExprPtr cnt_col = Expr::MakeColumn(0, program.count_ordinal);
              ExprPtr out;
              if (st.regroup) {
                out = Expr::MakeArith(
                    ArithOp::kDiv,
                    Expr::MakeAggregate(AggKind::kSum, sum_col),
                    Expr::MakeAggregate(AggKind::kSum, cnt_col));
              } else {
                out = Expr::MakeArith(ArithOp::kDiv, sum_col, cnt_col);
              }
              st.sub.outputs.push_back(OutputExpr{name, std::move(out)});
              break;
            }
          }
        }
        break;
      }

      case MatchOp::kAccept: {
        MatchResult out;
        out.substitute = std::move(st.sub);
        return out;
      }
    }
  }
  // CompileMatchProgram always ends the stream in kAccept.
  throw std::logic_error("match program of view " +
                         std::to_string(program.view_id) +
                         " ends without an accept op");
}

}  // namespace mvopt
