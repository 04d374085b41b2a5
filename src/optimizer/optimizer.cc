#include "optimizer/optimizer.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <string>

#include "expr/classify.h"
#include "rewrite/equiv.h"
#include "rewrite/view_description.h"

namespace mvopt {

namespace {

int PopCount(uint32_t x) { return __builtin_popcount(x); }

// Distinct column references of `expr` restricted to refs in `mask`.
void CollectMaskedColumns(const ExprPtr& expr, uint32_t mask,
                          std::vector<ColumnRefId>* out) {
  std::vector<ColumnRefId> cols;
  expr->CollectColumnRefs(&cols);
  for (ColumnRefId c : cols) {
    if (c.table_ref >= kSyntheticRefBase) continue;
    if (!(mask & (1u << c.table_ref))) continue;
    if (std::find(out->begin(), out->end(), c) == out->end()) {
      out->push_back(c);
    }
  }
}

/// Slot of query table `t` in the signature of the group over `mask`:
/// the group's tables keep their query order.
int32_t SlotIn(uint32_t mask, int32_t t) {
  return PopCount(mask & ((1u << t) - 1));
}

constexpr int kJoinedAggKeyBase = 100000;

uint64_t GroupKey(uint32_t mask, int agg_spec) {
  return (uint64_t{mask} << 32) | static_cast<uint32_t>(agg_spec);
}

/// A map from 64-bit keys to non-negative ints, open-addressed in one
/// flat slot array, so an entry costs no allocation of its own.
class FlatIndex {
 public:
  /// The value under `key`, or -1.
  int Find(uint64_t key) const {
    if (slots_.empty()) return -1;
    const size_t mask = slots_.size() - 1;
    for (size_t i = Hash(key) & mask;; i = (i + 1) & mask) {
      if (slots_[i].value < 0) return -1;
      if (slots_[i].key == key) return slots_[i].value;
    }
  }

  /// Adds `key`, which must be absent.
  void Insert(uint64_t key, int value) {
    if (2 * (size_ + 1) > slots_.size()) Grow();
    Place(key, value);
    ++size_;
  }

 private:
  struct Slot {
    uint64_t key = 0;
    int value = -1;
  };

  static size_t Hash(uint64_t key) {
    key *= 0x9e3779b97f4a7c15ull;
    return static_cast<size_t>(key ^ (key >> 32));
  }
  void Place(uint64_t key, int value) {
    const size_t mask = slots_.size() - 1;
    size_t i = Hash(key) & mask;
    while (slots_[i].value >= 0) i = (i + 1) & mask;
    slots_[i] = Slot{key, value};
  }
  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(std::max<size_t>(64, 2 * old.size()), Slot{});
    for (const Slot& s : old) {
      if (s.value >= 0) Place(s.key, s.value);
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
};

}  // namespace

struct Optimizer::Context {
  const SpjgQuery* query = nullptr;
  QueryContext* qctx = nullptr;   // the caller's per-query context
  QueryBudget* budget = nullptr;  // == qctx->budget(); may be null
  uint32_t full_mask = 0;
  FlatIndex group_index;  // GroupKey(mask, agg_spec) -> group id
  std::vector<Group> groups;
  std::vector<AggSpec> agg_specs;
  OptimizerMetrics metrics;
  QueryTrace* trace = nullptr;  // full-trace mode only

  // Derived from the query once (Derive); each group selects its part by
  // mask instead of re-deriving it.
  /// Per query conjunct: the FROM slots it reads, and the list of
  /// conjunct_preds it was classified into with its index there.
  std::vector<uint32_t> conjunct_mask;
  std::vector<ConjunctKind> conjunct_kind;
  std::vector<uint32_t> conjunct_pred;
  ClassifiedPredicates conjunct_preds;
  /// Every column of a FROM slot that a conjunct, output or grouping
  /// expression reads, sorted unique.
  std::vector<ColumnRefId> query_columns;

  /// SPJ groups' required columns back to back (Group::required_begin).
  std::vector<ColumnRefId> required_pool;
  /// MakeSpjGroup's connected splits; each call pushes and pops its own
  /// above those of the groups it was called for.
  std::vector<uint32_t> splits;

  // Signature parts shared across groups (Expr nodes are immutable).
  /// One column node per (signature slot, column):
  /// column_nodes[slot * column_stride + column], made on first use.
  std::vector<ExprPtr> column_nodes;
  size_t column_stride = 0;
  /// Remapped conjuncts (RemappedConjunct), and their index by
  /// (conjunct, the group's tables below the conjunct's last table).
  FlatIndex remapped_index;
  std::vector<ExprPtr> remapped_conjuncts;
  /// "o0", "o1", ...: the names of an SPJ signature's outputs.
  std::vector<std::string> output_names;
  /// An SPJ group's classified predicates, refilled per estimate.
  ClassifiedPredicates group_preds;

  void Derive(const Catalog& catalog) {
    const SpjgQuery& q = *query;
    full_mask = (1u << q.num_tables()) - 1;
    for (const ExprPtr& c : q.conjuncts) {
      const size_t first = query_columns.size();
      c->CollectColumnRefs(&query_columns);
      uint32_t m = 0;
      for (size_t i = first; i < query_columns.size(); ++i) {
        const int32_t t = query_columns[i].table_ref;
        if (t < kSyntheticRefBase) m |= 1u << t;
      }
      conjunct_mask.push_back(m);
      const ConjunctKind kind = ClassifyConjunct(c, &conjunct_preds);
      conjunct_kind.push_back(kind);
      const size_t listed = kind == ConjunctKind::kEquality
                                ? conjunct_preds.equalities.size()
                            : kind == ConjunctKind::kRange
                                ? conjunct_preds.ranges.size()
                                : conjunct_preds.residual.size();
      conjunct_pred.push_back(static_cast<uint32_t>(listed - 1));
    }
    for (const OutputExpr& o : q.outputs) {
      o.expr->CollectColumnRefs(&query_columns);
    }
    for (const ExprPtr& g : q.group_by) g->CollectColumnRefs(&query_columns);
    query_columns.erase(
        std::remove_if(query_columns.begin(), query_columns.end(),
                       [](ColumnRefId c) {
                         return c.table_ref >= kSyntheticRefBase;
                       }),
        query_columns.end());
    std::sort(query_columns.begin(), query_columns.end());
    query_columns.erase(
        std::unique(query_columns.begin(), query_columns.end()),
        query_columns.end());

    for (const TableRef& tr : q.tables) {
      column_stride = std::max(
          column_stride,
          static_cast<size_t>(catalog.table(tr.table).num_columns()));
    }
    column_nodes.resize(q.tables.size() * column_stride);
  }

  uint32_t MaskOf(const ExprPtr& e) const {
    std::vector<ColumnRefId> cols;
    e->CollectColumnRefs(&cols);
    uint32_t m = 0;
    for (ColumnRefId c : cols) {
      if (c.table_ref < kSyntheticRefBase) m |= 1u << c.table_ref;
    }
    return m;
  }

  bool Within(size_t ci, uint32_t mask) const {
    return (conjunct_mask[ci] & ~mask) == 0;
  }

  /// True when conjunct `ci` joins `a` to `b`: it reads both and nothing
  /// outside them.
  bool Crosses(size_t ci, uint32_t a, uint32_t b) const {
    const uint32_t m = conjunct_mask[ci];
    return (m & a) != 0 && (m & b) != 0 && (m & ~(a | b)) == 0;
  }

  std::span<const ColumnRefId> RequiredColumns(const Group& g) const {
    return std::span<const ColumnRefId>(required_pool)
        .subspan(g.required_begin, g.required_end - g.required_begin);
  }

  const std::string& OutputName(size_t i) {
    while (output_names.size() <= i) {
      output_names.push_back("o" + std::to_string(output_names.size()));
    }
    return output_names[i];
  }

  const ExprPtr& ColumnNode(int32_t slot, ColumnOrdinal column) {
    ExprPtr& node =
        column_nodes[static_cast<size_t>(slot) * column_stride +
                     static_cast<size_t>(column)];
    if (node == nullptr) node = Expr::MakeColumn(slot, column);
    return node;
  }

  /// `e` (over the query's slots) over the slots of the group's
  /// signature: unchanged subtrees and column nodes are shared.
  ExprPtr Remap(const ExprPtr& e, uint32_t mask) {
    return Expr::MapColumns(e, [this, mask](const ExprPtr& column) {
      const ColumnRefId ref = column->column_ref();
      const int32_t slot = SlotIn(mask, ref.table_ref);
      return slot == ref.table_ref ? column : ColumnNode(slot, ref.column);
    });
  }

  /// Conjunct `ci` over the slots of the group over `mask`, which
  /// contains its tables. Its slots depend only on the group's tables
  /// below its last table, so every group agreeing on those shares one
  /// remapped conjunct.
  ExprPtr RemappedConjunct(size_t ci, uint32_t mask) {
    const uint32_t m = conjunct_mask[ci];
    const uint32_t below =
        m == 0 ? 0 : mask & ((1u << (31 - __builtin_clz(m))) - 1);
    const uint64_t key = (uint64_t{ci} << 32) | below;
    int idx = remapped_index.Find(key);
    if (idx < 0) {
      idx = static_cast<int>(remapped_conjuncts.size());
      remapped_conjuncts.push_back(Remap(query->conjuncts[ci], mask));
      remapped_index.Insert(key, idx);
    }
    return remapped_conjuncts[static_cast<size_t>(idx)];
  }
};

Optimizer::Optimizer(const Catalog* catalog, SubstituteSource* matching,
                     OptimizerOptions options)
    : catalog_(catalog),
      matching_(matching),
      options_(options),
      estimator_(catalog) {
  RegisterMetrics();
}

void Optimizer::RegisterMetrics() {
  if (!options_.observe.counters_enabled()) return;
  MetricsRegistry* r = options_.observe.registry;
  metrics_.optimizations = r->FindOrCreateCounter(
      "mvopt_optimize_total", "Optimize calls completed");
  metrics_.memo_groups = r->FindOrCreateCounter(
      "mvopt_memo_groups_total", "Memo groups created");
  metrics_.memo_exprs = r->FindOrCreateCounter(
      "mvopt_memo_exprs_total", "Memo logical expressions generated");
  metrics_.view_matching_invocations = r->FindOrCreateCounter(
      "mvopt_view_matching_invocations_total",
      "View-matching rule invocations");
  metrics_.view_matching_failures = r->FindOrCreateCounter(
      "mvopt_view_matching_failures_total",
      "View-matching probes that raised and were isolated");
  for (int i = 0; i < kNumDegradationReasons; ++i) {
    const auto reason = static_cast<DegradationReason>(i);
    if (reason == DegradationReason::kNone) continue;
    metrics_.degradations[i] = r->FindOrCreateCounter(
        "mvopt_budget_degradations_total",
        "Optimizations degraded by a budget limit, by first tripped reason",
        {{"reason", DegradationReasonName(reason)}});
  }
  metrics_.optimize_latency = r->FindOrCreateHistogram(
      "mvopt_optimize_latency_seconds", "Optimize wall-clock latency");
}

const SpjgQuery& Optimizer::SignatureOf(Context& ctx, Group& group) const {
  if (group.signature.has_value()) return *group.signature;
  const SpjgQuery& q = *ctx.query;
  const uint32_t mask = group.mask;
  SpjgQuery& sig = group.signature.emplace();
  sig.tables.reserve(static_cast<size_t>(PopCount(mask)));
  for (int t = 0; t < q.num_tables(); ++t) {
    if (mask & (1u << t)) sig.tables.push_back(q.tables[t]);
  }
  size_t within = 0;
  for (size_t ci = 0; ci < q.conjuncts.size(); ++ci) {
    within += ctx.Within(ci, mask) ? 1 : 0;
  }
  sig.conjuncts.reserve(within);
  for (size_t ci = 0; ci < q.conjuncts.size(); ++ci) {
    if (ctx.Within(ci, mask)) {
      sig.conjuncts.push_back(ctx.RemappedConjunct(ci, mask));
    }
  }
  if (group.agg_spec < 0) {
    const std::span<const ColumnRefId> required = ctx.RequiredColumns(group);
    sig.outputs.reserve(required.size());
    for (size_t i = 0; i < required.size(); ++i) {
      const ColumnRefId c = required[i];
      sig.outputs.push_back(
          OutputExpr{ctx.OutputName(i),
                     ctx.ColumnNode(SlotIn(mask, c.table_ref), c.column)});
    }
    sig.is_aggregate = false;
  } else {
    const AggSpec& spec = ctx.agg_specs[group.agg_spec];
    sig.group_by.reserve(spec.group_by.size());
    for (const auto& g : spec.group_by) {
      sig.group_by.push_back(ctx.Remap(g, mask));
    }
    sig.outputs.reserve(spec.outputs.size());
    for (const auto& o : spec.outputs) {
      sig.outputs.push_back(OutputExpr{o.name, ctx.Remap(o.expr, mask)});
    }
    sig.is_aggregate = true;
  }
  return sig;
}

void Optimizer::ApplyViewMatching(Context* ctx, int group_id) {
  Group& group = ctx->groups[group_id];
  if (group.matched) return;
  group.matched = true;
  if (!options_.enable_view_matching || matching_ == nullptr) return;
  // Substitutes are optional alternatives: an exhausted budget skips the
  // rule entirely (the group keeps its base-table expressions).
  if (ctx->budget != nullptr && ctx->budget->TickDeadline()) return;

  const SpjgQuery& sig = SignatureOf(*ctx, group);
  auto start = std::chrono::steady_clock::now();
  std::vector<Substitute> subs;
  try {
    subs = matching_->FindSubstitutes(sig, *ctx->qctx);
  } catch (const std::exception&) {
    // Fault isolation: a failing matching service degrades the plan (no
    // substitutes for this group), never the optimization.
    ++ctx->metrics.view_matching_failures;
  }
  auto end = std::chrono::steady_clock::now();
  ctx->metrics.view_matching_seconds +=
      std::chrono::duration<double>(end - start).count();
  ++ctx->metrics.view_matching_invocations;
  ctx->metrics.substitutes_produced += static_cast<int64_t>(subs.size());
  if (!options_.produce_substitutes) return;

  for (Substitute& sub : subs) {
    LogicalExpr e;
    e.kind = ExprKindL::kViewGet;
    e.substitute = std::make_shared<const Substitute>(std::move(sub));
    group.exprs.push_back(std::move(e));
    ++ctx->metrics.expressions_generated;
  }
}

int Optimizer::MakeSpjGroup(Context* ctx, uint32_t mask) {
  const uint64_t key = GroupKey(mask, -1);
  int gid = ctx->group_index.Find(key);
  if (gid >= 0) return gid;

  gid = static_cast<int>(ctx->groups.size());
  ctx->group_index.Insert(key, gid);
  ctx->groups.push_back(Group{});
  ++ctx->metrics.groups_created;
  // Charge the budget for the group; creation itself always proceeds
  // (the memo needs the group for a complete plan), but once the cap
  // trips every group is built minimally below.
  if (ctx->budget != nullptr) ctx->budget->ConsumeMemoGroup();
  {
    Group& g = ctx->groups[gid];
    g.mask = mask;
    g.agg_spec = -1;
    // Required columns: every column of the group's tables referenced
    // anywhere in the query (predicates, outputs, grouping).
    g.required_begin = static_cast<uint32_t>(ctx->required_pool.size());
    for (ColumnRefId c : ctx->query_columns) {
      if (mask & (1u << c.table_ref)) ctx->required_pool.push_back(c);
    }
    g.required_end = static_cast<uint32_t>(ctx->required_pool.size());
  }

  if (PopCount(mask) == 1) {
    LogicalExpr e;
    e.kind = ExprKindL::kGet;
    e.table_ref = static_cast<int32_t>(__builtin_ctz(mask));
    ctx->groups[gid].exprs.push_back(e);
    ++ctx->metrics.expressions_generated;
  } else {
    // All binary splits; prefer splits where both sides are internally
    // connected and linked to each other by a crossing conjunct, falling
    // back to every split for disconnected queries (cross joins).
    auto internally_connected = [ctx](uint32_t m) {
      uint32_t reached = m & (~m + 1);  // lowest bit
      bool grew = true;
      while (grew && reached != m) {
        grew = false;
        for (uint32_t cm : ctx->conjunct_mask) {
          if ((cm & ~m) == 0 && (cm & reached) != 0 &&
              (cm & m & ~reached) != 0) {
            reached |= cm & m;
            grew = true;
          }
        }
      }
      return reached == m;
    };
    auto crossed = [ctx](uint32_t a, uint32_t b) {
      for (size_t ci = 0; ci < ctx->conjunct_mask.size(); ++ci) {
        if (ctx->Crosses(ci, a, b)) return true;
      }
      return false;
    };
    const size_t first = ctx->splits.size();
    for (uint32_t s = (mask - 1) & mask; s != 0; s = (s - 1) & mask) {
      if (crossed(s, mask & ~s) && internally_connected(s) &&
          internally_connected(mask & ~s)) {
        ctx->splits.push_back(s);
      }
    }
    const size_t last = ctx->splits.size();
    // Adds the join over split `s`; false once the budget stops further
    // splits.
    auto add_join = [this, ctx, gid, mask](uint32_t s) {
      // Graceful degradation: the first split always materializes (its
      // recursion gives every group at least one complete alternative,
      // so a plan always exists); further splits stop once the budget is
      // exhausted.
      if (ctx->budget != nullptr && !ctx->groups[gid].exprs.empty()) {
        ctx->budget->TickDeadline();
        ctx->budget->ConsumeMemoExpr();
        if (ctx->budget->exhausted()) return false;
      }
      int left = MakeSpjGroup(ctx, s);
      int right = MakeSpjGroup(ctx, mask & ~s);
      LogicalExpr e;
      e.kind = ExprKindL::kJoin;
      e.children[0] = left;
      e.children[1] = right;
      ctx->groups[gid].exprs.push_back(e);
      ++ctx->metrics.expressions_generated;
      return true;
    };
    if (first == last) {
      for (uint32_t s = (mask - 1) & mask; s != 0; s = (s - 1) & mask) {
        if (!add_join(s)) break;
      }
    } else {
      // By index: the recursion pushes above `last` (and pops back), so
      // the stack may reallocate.
      for (size_t i = first; i < last; ++i) {
        if (!add_join(ctx->splits[i])) break;
      }
      ctx->splits.resize(first);
    }
  }
  ApplyViewMatching(ctx, gid);
  return gid;
}

int Optimizer::MakeAggGroup(Context* ctx, uint32_t mask, int agg_spec) {
  const uint64_t key = GroupKey(mask, agg_spec);
  int gid = ctx->group_index.Find(key);
  if (gid >= 0) return gid;
  gid = static_cast<int>(ctx->groups.size());
  ctx->group_index.Insert(key, gid);
  ctx->groups.push_back(Group{});
  ++ctx->metrics.groups_created;
  ctx->groups[gid].mask = mask;
  ctx->groups[gid].agg_spec = agg_spec;

  int child = MakeSpjGroup(ctx, mask);
  LogicalExpr e;
  e.kind = ExprKindL::kAggregate;
  e.children[0] = child;
  e.child_agg_spec = agg_spec;  // compute spec == group spec
  ctx->groups[gid].exprs.push_back(e);
  ++ctx->metrics.expressions_generated;
  ApplyViewMatching(ctx, gid);
  return gid;
}

void Optimizer::ApplyPreAggregation(Context* ctx, int root_group) {
  const SpjgQuery& q = *ctx->query;
  Group& root = ctx->groups[root_group];
  const uint32_t mask = root.mask;
  if (PopCount(mask) < 2) return;
  const AggSpec spec0 = ctx->agg_specs[root.agg_spec];

  for (int r = 0; r < q.num_tables(); ++r) {
    // Pre-aggregation alternatives are pure gravy — stop on exhaustion.
    if (ctx->budget != nullptr &&
        (ctx->budget->TickDeadline() || ctx->budget->exhausted())) {
      break;
    }
    const uint32_t rbit = 1u << r;
    if (!(mask & rbit)) continue;
    const uint32_t inner_mask = mask & ~rbit;

    // (a) No aggregate argument may reference the pushed-over table.
    bool aggs_ok = true;
    for (const auto& o : spec0.outputs) {
      if (o.expr->kind() != ExprKind::kAggregate) continue;
      if (o.expr->num_children() == 1 &&
          (ctx->MaskOf(o.expr->child(0)) & rbit) != 0) {
        aggs_ok = false;
        break;
      }
    }
    if (!aggs_ok) continue;

    // (b) The crossing predicates must be column equalities whose r-side
    // columns cover a unique key of r's table (each inner row then joins
    // at most one r row, so pre-aggregated sums stay correct).
    std::vector<int> crossing;
    for (size_t ci = 0; ci < q.conjuncts.size(); ++ci) {
      if (ctx->Crosses(ci, inner_mask, rbit)) {
        crossing.push_back(static_cast<int>(ci));
      }
    }
    if (crossing.empty()) continue;
    std::vector<ColumnOrdinal> r_cols;
    std::vector<ColumnRefId> inner_join_cols;
    bool equalities_ok = true;
    for (int ci : crossing) {
      const Expr& e = *q.conjuncts[ci];
      if (e.kind() != ExprKind::kComparison ||
          e.compare_op() != CompareOp::kEq ||
          e.child(0)->kind() != ExprKind::kColumnRef ||
          e.child(1)->kind() != ExprKind::kColumnRef) {
        equalities_ok = false;
        break;
      }
      ColumnRefId a = e.child(0)->column_ref();
      ColumnRefId b = e.child(1)->column_ref();
      if (a.table_ref == r) std::swap(a, b);
      if (b.table_ref != r || a.table_ref == r) {
        equalities_ok = false;
        break;
      }
      r_cols.push_back(b.column);
      inner_join_cols.push_back(a);
    }
    if (!equalities_ok) continue;
    if (!catalog_->table(q.tables[r].table).CoversUniqueKey(r_cols)) {
      continue;
    }

    // Inner grouping: join columns + all inner-side columns referenced by
    // the outer grouping expressions.
    std::vector<ColumnRefId> inner_group_cols = inner_join_cols;
    for (const auto& g : spec0.group_by) {
      CollectMaskedColumns(g, inner_mask, &inner_group_cols);
    }
    std::sort(inner_group_cols.begin(), inner_group_cols.end());
    inner_group_cols.erase(
        std::unique(inner_group_cols.begin(), inner_group_cols.end()),
        inner_group_cols.end());

    // Build the inner aggregation spec.
    AggSpec inner;
    for (size_t i = 0; i < inner_group_cols.size(); ++i) {
      ExprPtr col = Expr::MakeColumn(inner_group_cols[i]);
      inner.group_by.push_back(col);
      inner.outputs.push_back(OutputExpr{"pg" + std::to_string(i), col});
    }
    const int count_ordinal = static_cast<int>(inner.outputs.size());
    inner.outputs.push_back(OutputExpr{
        "pcnt", Expr::MakeAggregate(AggKind::kCountStar, nullptr)});
    // One pushed aggregate per outer aggregate (AVG contributes a SUM).
    struct PushedAgg {
      size_t outer_index;  // index into spec0.outputs
      int inner_ordinal;
      AggKind kind;
    };
    std::vector<PushedAgg> pushed;
    for (size_t i = 0; i < spec0.outputs.size(); ++i) {
      const Expr& oe = *spec0.outputs[i].expr;
      if (oe.kind() != ExprKind::kAggregate) continue;
      switch (oe.agg_kind()) {
        case AggKind::kCountStar:
          pushed.push_back({i, count_ordinal, AggKind::kCountStar});
          break;
        case AggKind::kSum:
        case AggKind::kMin:
        case AggKind::kMax: {
          int ord = static_cast<int>(inner.outputs.size());
          inner.outputs.push_back(OutputExpr{
              "pa" + std::to_string(i),
              Expr::MakeAggregate(oe.agg_kind(), oe.child(0))});
          pushed.push_back({i, ord, oe.agg_kind()});
          break;
        }
        case AggKind::kAvg: {
          int ord = static_cast<int>(inner.outputs.size());
          inner.outputs.push_back(OutputExpr{
              "pa" + std::to_string(i),
              Expr::MakeAggregate(AggKind::kSum, oe.child(0))});
          pushed.push_back({i, ord, AggKind::kAvg});
          break;
        }
      }
    }
    inner.scalar = inner.group_by.empty();

    const int inner_spec_id = static_cast<int>(ctx->agg_specs.size());
    ctx->agg_specs.push_back(inner);
    const int32_t syn = kSyntheticRefBase + inner_spec_id;

    // Outer spec: original grouping; aggregates roll up over synthetics.
    AggSpec outer;
    outer.group_by = spec0.group_by;
    outer.scalar = spec0.scalar;
    outer.outputs = spec0.outputs;
    ExprPtr syn_cnt = Expr::MakeColumn(syn, count_ordinal);
    for (const PushedAgg& p : pushed) {
      ExprPtr syn_col = Expr::MakeColumn(syn, p.inner_ordinal);
      ExprPtr rewritten;
      switch (p.kind) {
        case AggKind::kCountStar:
          rewritten = Expr::MakeAggregate(AggKind::kSum, syn_cnt);
          break;
        case AggKind::kSum:
          rewritten = Expr::MakeAggregate(AggKind::kSum, syn_col);
          break;
        case AggKind::kMin:
        case AggKind::kMax:
          rewritten = Expr::MakeAggregate(p.kind, syn_col);
          break;
        case AggKind::kAvg:
          rewritten = Expr::MakeArith(
              ArithOp::kDiv, Expr::MakeAggregate(AggKind::kSum, syn_col),
              Expr::MakeAggregate(AggKind::kSum, syn_cnt));
          break;
      }
      outer.outputs[p.outer_index].expr = rewritten;
    }
    const int outer_spec_id = static_cast<int>(ctx->agg_specs.size());
    ctx->agg_specs.push_back(std::move(outer));

    // Memo wiring: inner agg group, the join-above-aggregate group, and
    // the alternative root expression.
    int inner_gid = MakeAggGroup(ctx, inner_mask, inner_spec_id);
    const uint64_t jkey = GroupKey(mask, kJoinedAggKeyBase + inner_spec_id);
    int join_gid = ctx->group_index.Find(jkey);
    if (join_gid < 0) {
      join_gid = static_cast<int>(ctx->groups.size());
      ctx->group_index.Insert(jkey, join_gid);
      ctx->groups.push_back(Group{});
      ++ctx->metrics.groups_created;
      ctx->groups[join_gid].mask = mask;
      ctx->groups[join_gid].agg_spec = kJoinedAggKeyBase + inner_spec_id;
      ctx->groups[join_gid].matched = true;  // not an SPJG expression
      int r_gid = MakeSpjGroup(ctx, rbit);
      LogicalExpr je;
      je.kind = ExprKindL::kJoin;
      je.children[0] = inner_gid;
      je.children[1] = r_gid;
      ctx->groups[join_gid].exprs.push_back(je);
      ++ctx->metrics.expressions_generated;
    }
    LogicalExpr re;
    re.kind = ExprKindL::kAggregate;
    re.children[0] = join_gid;
    re.child_agg_spec = outer_spec_id;
    ctx->groups[root_group].exprs.push_back(re);
    ++ctx->metrics.expressions_generated;
  }
}

double Optimizer::SpjCardinality(Context& ctx, Group& group) const {
  if (group.card >= 0) return group.card;
  const SpjgQuery& sig = SignatureOf(ctx, group);
  // The signature's conjuncts, classified as ClassifyConjuncts would list
  // them: each query conjunct inside the group, in order, moved to the
  // signature's slots. The residuals are the signature's own conjuncts.
  const uint32_t mask = group.mask;
  auto slot = [mask](ColumnRefId c) {
    return ColumnRefId{SlotIn(mask, c.table_ref), c.column};
  };
  ClassifiedPredicates& preds = ctx.group_preds;
  preds.equalities.clear();
  preds.ranges.clear();
  preds.residual.clear();
  size_t k = 0;  // the conjunct's position in sig.conjuncts
  for (size_t ci = 0; ci < ctx.conjunct_mask.size(); ++ci) {
    if (!ctx.Within(ci, mask)) continue;
    const uint32_t i = ctx.conjunct_pred[ci];
    switch (ctx.conjunct_kind[ci]) {
      case ConjunctKind::kEquality: {
        const ColumnEqualityPred& e = ctx.conjunct_preds.equalities[i];
        preds.equalities.push_back({slot(e.lhs), slot(e.rhs)});
        break;
      }
      case ConjunctKind::kRange: {
        const RangePred& r = ctx.conjunct_preds.ranges[i];
        preds.ranges.push_back({slot(r.column), r.op, r.bound});
        break;
      }
      case ConjunctKind::kResidual:
        preds.residual.push_back(sig.conjuncts[k]);
        break;
    }
    ++k;
  }
  EquivalenceClasses ec(*catalog_, sig.tables);
  ec.AddEqualities(preds.equalities);
  group.card = estimator_.EstimateSpj(BuildEstimateShape(sig, preds, ec));
  return group.card;
}

PhysPlanPtr Optimizer::ImplementGet(Context* ctx, Group& group,
                                    const LogicalExpr& expr) {
  const SpjgQuery& q = *ctx->query;
  const int32_t ref = expr.table_ref;
  const TableId tid = q.tables[ref].table;
  const TableDef& def = catalog_->table(tid);
  const double base_rows = std::max<int64_t>(1, def.row_count());
  const double out_rows = std::max(1.0, SpjCardinality(*ctx, group));

  std::vector<ExprPtr> filters;
  for (size_t ci = 0; ci < q.conjuncts.size(); ++ci) {
    if (ctx->Within(ci, group.mask)) filters.push_back(q.conjuncts[ci]);
  }

  auto scan = std::make_shared<PhysPlan>();
  scan->kind = PhysKind::kTableScan;
  scan->table = tid;
  scan->table_ref = ref;
  scan->filter = filters;
  scan->rows = out_rows;
  scan->cost = base_rows + out_rows;

  PhysPlanPtr best = scan;
  if (options_.enable_index_scans && !def.unique_keys().empty()) {
    // Consider the primary index when a range predicate constrains its
    // leading column.
    const ColumnOrdinal lead = def.unique_keys()[0][0];
    ValueRange range;
    bool constrained = false;
    for (size_t ci = 0; ci < q.conjuncts.size(); ++ci) {
      if (!ctx->Within(ci, group.mask) ||
          ctx->conjunct_kind[ci] != ConjunctKind::kRange) {
        continue;
      }
      const RangePred& p = ctx->conjunct_preds.ranges[ctx->conjunct_pred[ci]];
      if (p.column.column == lead) {
        range.Apply(p.op, p.bound);
        constrained = true;
      }
    }
    if (constrained) {
      double sel = 1.0;
      if (!range.lo.is_infinite) {
        sel = estimator_.RangeSelectivity(
            def, lead, range.lo.inclusive ? CompareOp::kGe : CompareOp::kGt,
            range.lo.value);
      }
      if (!range.hi.is_infinite) {
        double s2 = estimator_.RangeSelectivity(
            def, lead, range.hi.inclusive ? CompareOp::kLe : CompareOp::kLt,
            range.hi.value);
        sel = std::max(0.0, sel + s2 - 1.0);
      }
      auto idx = std::make_shared<PhysPlan>();
      idx->kind = PhysKind::kIndexRangeScan;
      idx->table = tid;
      idx->table_ref = ref;
      idx->index_name = def.name() + "_pk";
      idx->index_column = lead;
      idx->index_range = range;
      idx->filter = filters;
      idx->rows = out_rows;
      idx->cost = sel * base_rows + std::log2(base_rows + 2) + out_rows;
      if (idx->cost < best->cost) best = idx;
    }
  }
  return best;
}

void Optimizer::ImplementJoin(Context* ctx, Group& group,
                              const LogicalExpr& expr, PhysPlanPtr* best) {
  const PhysPlanPtr& left = OptimizeGroup(ctx, expr.children[0]);
  const PhysPlanPtr& right = OptimizeGroup(ctx, expr.children[1]);
  if (left == nullptr || right == nullptr) return;

  double out_rows;
  if (group.agg_spec >= kJoinedAggKeyBase) {
    // Join of a pre-aggregated child with a unique-key side: cardinality
    // is bounded by the aggregated child's rows.
    out_rows = left->rows;
  } else {
    out_rows = std::max(1.0, SpjCardinality(*ctx, group));
  }
  const double cost =
      left->cost + right->cost + left->rows + right->rows + out_rows;
  if (*best != nullptr && !(cost < (*best)->cost)) return;

  const uint32_t lmask = ctx->groups[expr.children[0]].mask;
  const uint32_t rmask = ctx->groups[expr.children[1]].mask;
  auto join = std::make_shared<PhysPlan>();
  join->kind = PhysKind::kHashJoin;
  join->children = {left, right};
  for (size_t ci = 0; ci < ctx->conjunct_mask.size(); ++ci) {
    if (ctx->Crosses(ci, lmask, rmask)) {
      join->filter.push_back(ctx->query->conjuncts[ci]);
    }
  }
  join->rows = out_rows;
  join->cost = cost;
  *best = std::move(join);
}

PhysPlanPtr Optimizer::ImplementAggregate(Context* ctx, const Group& group,
                                          const LogicalExpr& expr) {
  (void)group;  // semantics are fully described by the expression's spec
  PhysPlanPtr child = OptimizeGroup(ctx, expr.children[0]);
  if (child == nullptr) return nullptr;
  const AggSpec& spec = ctx->agg_specs[expr.child_agg_spec];

  double groups_estimate = 1.0;
  for (const auto& g : spec.group_by) {
    double d = 100.0;
    if (g->kind() == ExprKind::kColumnRef &&
        g->column_ref().table_ref < kSyntheticRefBase) {
      const TableDef& t =
          catalog_->table(ctx->query->tables[g->column_ref().table_ref]
                              .table);
      int64_t nd = t.column(g->column_ref().column).stats.distinct;
      if (nd > 0) d = static_cast<double>(nd);
    }
    groups_estimate *= d;
  }
  groups_estimate = std::min(groups_estimate, std::max(1.0, child->rows));

  auto agg = std::make_shared<PhysPlan>();
  agg->kind = PhysKind::kHashAggregate;
  agg->children = {child};
  agg->group_by = spec.group_by;
  agg->outputs = spec.outputs;
  agg->agg_spec_id = expr.child_agg_spec;
  agg->rows = groups_estimate;
  agg->cost = child->cost + child->rows + groups_estimate;
  return agg;
}

void Optimizer::ImplementViewGet(Context* ctx, const Group& group,
                                 const LogicalExpr& expr, PhysPlanPtr* best) {
  const Substitute& sub = *expr.substitute;
  const ViewDefinition& view = matching_->ResolveView(sub.view_id);

  // View size: actual row count when materialized; otherwise the view's
  // registration-time estimate shape, evaluated against the current
  // statistics.
  double view_rows;
  TableId vt = view.materialized_table();
  if (vt != kInvalidTableId) {
    view_rows = std::max<int64_t>(1, catalog_->table(vt).row_count());
  } else {
    view_rows =
        std::max(1.0, estimator_.EstimateResult(view.estimate_shape()));
  }

  // Selectivity of the compensating predicates, from the statistics of
  // the table each range reads: the materialized view's own table for
  // view outputs (table_ref 0), the base table for a column routed
  // through backjoin j (table_ref 1 + j). Per-predicate defaults for the
  // outputs of a view that is not materialized.
  ClassifiedPredicates preds = ClassifyConjuncts(sub.predicates);
  double sel = 1.0;
  for (const auto& p : preds.ranges) {
    const int32_t ref = p.column.table_ref;
    const TableId stats_table =
        ref == 0 ? vt : sub.backjoins[static_cast<size_t>(ref - 1)].table;
    if (stats_table != kInvalidTableId) {
      sel *= estimator_.RangeSelectivity(catalog_->table(stats_table),
                                         p.column.column, p.op, p.bound);
    } else {
      sel *= (p.op == CompareOp::kEq) ? 0.05 : (1.0 / 3.0);
    }
  }
  for (size_t i = 0; i < preds.equalities.size() + preds.residual.size();
       ++i) {
    sel *= 1.0 / 3.0;
  }
  double selected_rows = std::max(1.0, view_rows * sel);
  double final_rows = selected_rows;
  double agg_cost = 0;
  if (sub.needs_aggregation) {
    final_rows = std::max(1.0, selected_rows / 2);
    agg_cost = selected_rows;
  }

  double backjoin_cost = 0;
  for (const auto& bj : sub.backjoins) {
    backjoin_cost +=
        std::max<int64_t>(1, catalog_->table(bj.table).row_count());
  }

  // A scan of the view at `cost`, built only for a plan that wins.
  auto make_scan = [&](double cost) {
    auto scan = std::make_shared<PhysPlan>();
    scan->kind = PhysKind::kViewScan;
    scan->table = vt;
    scan->view = sub.view_id;
    scan->view_name = view.name();
    scan->substitute = expr.substitute;
    if (group.agg_spec < 0) {
      const std::span<const ColumnRefId> required =
          ctx->RequiredColumns(group);
      scan->provides.assign(required.begin(), required.end());
    } else {
      // Aggregation groups expose their spec outputs: grouping columns
      // keep their global identity, aggregates get synthetic references.
      const AggSpec& spec = ctx->agg_specs[group.agg_spec];
      for (size_t i = 0; i < spec.outputs.size(); ++i) {
        const Expr& oe = *spec.outputs[i].expr;
        if (oe.kind() == ExprKind::kColumnRef &&
            oe.column_ref().table_ref < kSyntheticRefBase) {
          scan->provides.push_back(oe.column_ref());
        } else {
          scan->provides.push_back(
              ColumnRefId{kSyntheticRefBase + group.agg_spec,
                          static_cast<ColumnOrdinal>(i)});
        }
      }
    }
    scan->rows = final_rows;
    scan->cost = cost;
    return scan;
  };
  const double scan_cost =
      view_rows + backjoin_cost + selected_rows + agg_cost + final_rows;
  if (*best == nullptr || scan_cost < (*best)->cost) {
    *best = make_scan(scan_cost);
  }

  if (options_.enable_index_scans && sub.backjoins.empty()) {
    // Secondary (and clustered) indexes on the view are considered
    // automatically: any index whose leading output column carries a
    // compensating range or point predicate becomes an index range scan.
    std::vector<const IndexDef*> indexes;
    if (view.has_clustered_index()) indexes.push_back(&view.clustered_index());
    for (const auto& si : view.secondary_indexes()) indexes.push_back(&si);
    for (const IndexDef* idx : indexes) {
      if (idx->key_columns.empty()) continue;
      const int lead = idx->key_columns[0];
      ValueRange range;
      bool constrained = false;
      for (const auto& p : preds.ranges) {
        if (p.column.column == lead) {
          range.Apply(p.op, p.bound);
          constrained = true;
        }
      }
      if (!constrained) continue;
      double isel = 0.3;
      if (vt != kInvalidTableId) {
        const TableDef& vdef = catalog_->table(vt);
        isel = 1.0;
        if (!range.lo.is_infinite) {
          isel = estimator_.RangeSelectivity(
              vdef, lead,
              range.lo.inclusive ? CompareOp::kGe : CompareOp::kGt,
              range.lo.value);
        }
        if (!range.hi.is_infinite) {
          double s2 = estimator_.RangeSelectivity(
              vdef, lead,
              range.hi.inclusive ? CompareOp::kLe : CompareOp::kLt,
              range.hi.value);
          isel = std::max(0.0, isel + s2 - 1.0);
        }
      }
      const double iscan_cost = isel * view_rows + std::log2(view_rows + 2) +
                                selected_rows + agg_cost + final_rows;
      if (*best != nullptr && !(iscan_cost < (*best)->cost)) continue;
      auto iscan = make_scan(iscan_cost);
      iscan->kind = PhysKind::kViewIndexScan;
      iscan->index_name = idx->name;
      iscan->index_column = lead;
      iscan->index_range = range;
      *best = std::move(iscan);
    }
  }
}

const PhysPlanPtr& Optimizer::OptimizeGroup(Context* ctx, int group_id) {
  // Costing only reads the memo: exploration has finished, so no group
  // or expression is added and references into it stay valid across the
  // recursion into child groups.
  Group& group = ctx->groups[group_id];
  if (group.costed) return group.best;
  group.costed = true;
  PhysPlanPtr best;
  auto offer = [&best](PhysPlanPtr plan) {
    if (plan != nullptr && (best == nullptr || plan->cost < best->cost)) {
      best = std::move(plan);
    }
  };
  for (const LogicalExpr& expr : group.exprs) {
    switch (expr.kind) {
      case ExprKindL::kGet:
        offer(ImplementGet(ctx, group, expr));
        break;
      case ExprKindL::kJoin:
        ImplementJoin(ctx, group, expr, &best);
        break;
      case ExprKindL::kAggregate:
        offer(ImplementAggregate(ctx, group, expr));
        break;
      case ExprKindL::kViewGet:
        ImplementViewGet(ctx, group, expr, &best);
        break;
    }
  }
  group.best = std::move(best);
  group.best_cost = group.best != nullptr ? group.best->cost : 0;
  return group.best;
}

OptimizationResult Optimizer::Optimize(const SpjgQuery& query,
                                       QueryContext& qctx) {
  // Table sets are 32-bit masks and the root group enumerates every
  // split of its mask, so the limit holds before any memo work.
  if (query.num_tables() > kMaxTables) {
    throw std::invalid_argument(
        "Optimize: the query references " +
        std::to_string(query.num_tables()) + " tables; the limit is " +
        std::to_string(kMaxTables));
  }
  // A context may be reused across queries; per-query outcome state
  // (degradation reason and advisory, tick/candidate counters) must not
  // leak from one optimization into the next. Limits and the wall-clock
  // deadline are preserved.
  qctx.ResetForQuery();
  QueryBudget* budget = qctx.budget();
  Context ctx;
  ctx.query = &query;
  ctx.qctx = &qctx;
  ctx.budget = budget;
  ctx.Derive(*catalog_);

  const bool counters = metrics_.optimizations != nullptr;
  // Tracing: a trace already on the context (caller-owned) wins;
  // otherwise full-trace mode attaches an optimizer-owned one for the
  // duration of this call and hands it back in the result — unless the
  // context suppresses tracing for this query (serving-tier degradation).
  QueryTrace* const caller_trace = qctx.trace();
  std::shared_ptr<QueryTrace> trace;
  if (caller_trace != nullptr) {
    ctx.trace = caller_trace;
  } else if (options_.observe.trace_enabled() && !qctx.suppress_trace()) {
    trace = std::make_shared<QueryTrace>();
    trace->set_query(query.ToSql(*catalog_));
    ctx.trace = trace.get();
    qctx.set_trace(trace.get());
  }
  const bool observing = counters || ctx.trace != nullptr;
  std::chrono::steady_clock::time_point t_start{};
  if (observing) t_start = std::chrono::steady_clock::now();

  int root;
  if (query.is_aggregate) {
    AggSpec spec0;
    spec0.group_by = query.group_by;
    spec0.outputs = query.outputs;
    spec0.scalar = query.group_by.empty();
    ctx.agg_specs.push_back(std::move(spec0));
    root = MakeAggGroup(&ctx, ctx.full_mask, 0);
    if (options_.enable_preaggregation) {
      ApplyPreAggregation(&ctx, root);
    }
  } else {
    root = MakeSpjGroup(&ctx, ctx.full_mask);
  }

  std::chrono::steady_clock::time_point t_memo{};
  if (observing) t_memo = std::chrono::steady_clock::now();

  PhysPlanPtr plan = OptimizeGroup(&ctx, root);
  OptimizationResult result;
  if (plan != nullptr && !query.is_aggregate) {
    // Top projection computing the query's output expressions.
    auto project = std::make_shared<PhysPlan>();
    project->kind = PhysKind::kProject;
    project->children = {plan};
    project->outputs = query.outputs;
    project->rows = plan->rows;
    project->cost = plan->cost + plan->rows;
    plan = project;
  }
  result.plan = plan;
  result.cost = plan != nullptr ? plan->cost : 0;
  result.uses_view = plan != nullptr && plan->UsesView();
  result.degradation = qctx.degradation();
  result.metrics = ctx.metrics;

  if (observing) {
    const auto t_end = std::chrono::steady_clock::now();
    // Memo exploration nests the view-matching probes; the probes record
    // their own stages (filter probe, match tests), so subtract them to
    // keep the four stage spans additive.
    const double memo_seconds = std::max(
        0.0, std::chrono::duration<double>(t_memo - t_start).count() -
                 ctx.metrics.view_matching_seconds);
    const double costing_seconds =
        std::chrono::duration<double>(t_end - t_memo).count();
    if (ctx.trace != nullptr) {
      ctx.trace->AddStageSeconds(QueryTrace::Stage::kMemoExploration,
                                 memo_seconds);
      ctx.trace->AddStageSeconds(QueryTrace::Stage::kCosting,
                                 costing_seconds);
      ctx.trace->AddCount("memo_groups", ctx.metrics.groups_created);
      ctx.trace->AddCount("memo_exprs", ctx.metrics.expressions_generated);
      ctx.trace->AddCount("view_matching_invocations",
                          ctx.metrics.view_matching_invocations);
      ctx.trace->AddCount("substitutes_produced",
                          ctx.metrics.substitutes_produced);
      if (trace != nullptr) result.trace = std::move(trace);
    }
    if (counters) {
      metrics_.optimizations->Increment();
      metrics_.optimize_latency->Observe(
          std::chrono::duration<double>(t_end - t_start).count());
      if (ctx.metrics.groups_created != 0) {
        metrics_.memo_groups->Increment(ctx.metrics.groups_created);
      }
      if (ctx.metrics.expressions_generated != 0) {
        metrics_.memo_exprs->Increment(ctx.metrics.expressions_generated);
      }
      if (ctx.metrics.view_matching_invocations != 0) {
        metrics_.view_matching_invocations->Increment(
            ctx.metrics.view_matching_invocations);
      }
      if (ctx.metrics.view_matching_failures != 0) {
        metrics_.view_matching_failures->Increment(
            ctx.metrics.view_matching_failures);
      }
      Counter* degraded =
          metrics_.degradations[static_cast<size_t>(result.degradation)];
      if (degraded != nullptr) degraded->Increment();
    }
  }
  if (options_.audit_memo) {
    std::vector<MemoGroupRecord> records;
    records.reserve(ctx.groups.size());
    for (const Group& g : ctx.groups) {
      MemoGroupRecord rec;
      rec.mask = g.mask;
      rec.agg_spec = g.agg_spec;
      for (const LogicalExpr& e : g.exprs) {
        MemoExprRecord er;
        switch (e.kind) {
          case ExprKindL::kGet:
            er.kind = MemoExprRecord::Kind::kGet;
            break;
          case ExprKindL::kJoin:
            er.kind = MemoExprRecord::Kind::kJoin;
            break;
          case ExprKindL::kAggregate:
            er.kind = MemoExprRecord::Kind::kAggregate;
            break;
          case ExprKindL::kViewGet:
            er.kind = MemoExprRecord::Kind::kViewGet;
            break;
        }
        er.table_ref = e.table_ref;
        er.child0 = e.children[0];
        er.child1 = e.children[1];
        er.view_id =
            e.kind == ExprKindL::kViewGet ? e.substitute->view_id : -1;
        rec.exprs.push_back(er);
      }
      records.push_back(std::move(rec));
    }
    result.memo_audit = InvariantAuditor().AuditMemo(
        records, ctx.full_mask, static_cast<int>(ctx.agg_specs.size()),
        kJoinedAggKeyBase);
  }
  // Detach an optimizer-owned trace from the caller's context: the
  // result owns it now, and the context outlives this call.
  if (qctx.trace() != caller_trace) qctx.set_trace(caller_trace);
  return result;
}

}  // namespace mvopt
