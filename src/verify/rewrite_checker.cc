#include "verify/rewrite_checker.h"

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

namespace mvopt {

namespace {

std::string RefName(ColumnRefId c) {
  return "t" + std::to_string(c.table_ref) + ".c" + std::to_string(c.column);
}

// ---------------------------------------------------------------------------
// Independent union-find over column references. Columns are registered
// lazily; two unregistered references are equivalent only when identical.
// ---------------------------------------------------------------------------
class ProofClasses {
 public:
  void Merge(ColumnRefId a, ColumnRefId b) {
    int ra = Find(Ensure(a));
    int rb = Find(Ensure(b));
    if (ra != rb) parent_[rb] = ra;
  }

  int Ensure(ColumnRefId c) {
    auto it = idx_.find(c);
    if (it != idx_.end()) return it->second;
    int id = static_cast<int>(cols_.size());
    idx_.emplace(c, id);
    cols_.push_back(c);
    parent_.push_back(id);
    return id;
  }

  bool Same(ColumnRefId a, ColumnRefId b) const {
    if (a == b) return true;
    auto ia = idx_.find(a);
    auto ib = idx_.find(b);
    if (ia == idx_.end() || ib == idx_.end()) return false;
    return Find(ia->second) == Find(ib->second);
  }

  /// Root id of a registered column, or -1.
  int RootOf(ColumnRefId c) const {
    auto it = idx_.find(c);
    return it == idx_.end() ? -1 : Find(it->second);
  }

  /// Groups of two or more equivalent columns.
  std::vector<std::vector<ColumnRefId>> NontrivialGroups() const {
    std::map<int, std::vector<ColumnRefId>> by_root;
    for (size_t i = 0; i < cols_.size(); ++i) {
      by_root[Find(static_cast<int>(i))].push_back(cols_[i]);
    }
    std::vector<std::vector<ColumnRefId>> out;
    for (auto& [root, members] : by_root) {
      (void)root;
      if (members.size() >= 2) out.push_back(std::move(members));
    }
    return out;
  }

 private:
  int Find(int x) const {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  std::unordered_map<ColumnRefId, int, ColumnRefIdHash> idx_;
  std::vector<ColumnRefId> cols_;
  mutable std::vector<int> parent_;
};

/// True when `a` and `b` induce the same equality partition; otherwise
/// `*why` names a witness pair merged on one side only.
bool PartitionsEqual(const ProofClasses& a, const ProofClasses& b,
                     std::string* why) {
  for (const auto& group : a.NontrivialGroups()) {
    for (size_t i = 1; i < group.size(); ++i) {
      if (!b.Same(group[0], group[i])) {
        *why = RefName(group[0]) + " ~ " + RefName(group[i]) +
               " holds on the query side only";
        return false;
      }
    }
  }
  for (const auto& group : b.NontrivialGroups()) {
    for (size_t i = 1; i < group.size(); ++i) {
      if (!a.Same(group[0], group[i])) {
        *why = RefName(group[0]) + " ~ " + RefName(group[i]) +
               " holds on the substitute side only";
        return false;
      }
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Independent interval arithmetic over Value bounds. An absent bound is
// infinite; at an equal value an exclusive bound is the tighter one.
// ---------------------------------------------------------------------------
struct ProofBound {
  bool present = false;
  bool inclusive = false;
  Value value;
};

bool LowerTighter(const ProofBound& a, const ProofBound& b) {
  if (!a.present) return false;
  if (!b.present) return true;
  int c = a.value.Compare(b.value);
  if (c != 0) return c > 0;
  return !a.inclusive && b.inclusive;
}

bool UpperTighter(const ProofBound& a, const ProofBound& b) {
  if (!a.present) return false;
  if (!b.present) return true;
  int c = a.value.Compare(b.value);
  if (c != 0) return c < 0;
  return !a.inclusive && b.inclusive;
}

bool BoundsIdentical(const ProofBound& a, const ProofBound& b) {
  if (a.present != b.present) return false;
  if (!a.present) return true;
  return a.inclusive == b.inclusive && a.value == b.value;
}

struct ProofInterval {
  ProofBound lo;
  ProofBound hi;

  void Apply(CompareOp op, const Value& v) {
    ProofBound b;
    b.present = true;
    b.value = v;
    switch (op) {
      case CompareOp::kEq:
        b.inclusive = true;
        if (LowerTighter(b, lo)) lo = b;
        if (UpperTighter(b, hi)) hi = b;
        return;
      case CompareOp::kLt:
        b.inclusive = false;
        if (UpperTighter(b, hi)) hi = b;
        return;
      case CompareOp::kLe:
        b.inclusive = true;
        if (UpperTighter(b, hi)) hi = b;
        return;
      case CompareOp::kGt:
        b.inclusive = false;
        if (LowerTighter(b, lo)) lo = b;
        return;
      case CompareOp::kGe:
        b.inclusive = true;
        if (LowerTighter(b, lo)) lo = b;
        return;
      case CompareOp::kNe:
        return;  // never classified as a range
    }
  }

  bool SameAs(const ProofInterval& o) const {
    return BoundsIdentical(lo, o.lo) && BoundsIdentical(hi, o.hi);
  }

  std::string Describe() const {
    std::string out = lo.present
                          ? (lo.inclusive ? "[" : "(") + lo.value.ToString()
                          : "(-inf";
    out += ", ";
    out += hi.present ? hi.value.ToString() + (hi.inclusive ? "]" : ")")
                      : "+inf)";
    return out;
  }
};

// ---------------------------------------------------------------------------
// Independent conjunct classification (same language as expr/classify.cc:
// column=column, column-vs-literal range, everything else residual).
// ---------------------------------------------------------------------------
struct ProofRange {
  ColumnRefId column;
  CompareOp op;
  Value bound;
};

struct ProofPreds {
  std::vector<std::pair<ColumnRefId, ColumnRefId>> equalities;
  std::vector<ProofRange> ranges;
  std::vector<ExprPtr> residuals;
};

ProofPreds ClassifyForProof(const std::vector<ExprPtr>& conjuncts) {
  ProofPreds out;
  for (const auto& c : conjuncts) {
    if (c->kind() == ExprKind::kComparison) {
      const Expr& lhs = *c->child(0);
      const Expr& rhs = *c->child(1);
      if (c->compare_op() == CompareOp::kEq &&
          lhs.kind() == ExprKind::kColumnRef &&
          rhs.kind() == ExprKind::kColumnRef) {
        out.equalities.emplace_back(lhs.column_ref(), rhs.column_ref());
        continue;
      }
      if (c->compare_op() != CompareOp::kNe) {
        if (lhs.kind() == ExprKind::kColumnRef &&
            rhs.kind() == ExprKind::kLiteral && !rhs.literal().is_null()) {
          out.ranges.push_back(
              {lhs.column_ref(), c->compare_op(), rhs.literal()});
          continue;
        }
        if (rhs.kind() == ExprKind::kColumnRef &&
            lhs.kind() == ExprKind::kLiteral && !lhs.literal().is_null()) {
          out.ranges.push_back({rhs.column_ref(),
                                FlipCompare(c->compare_op()), lhs.literal()});
          continue;
        }
      }
    }
    out.residuals.push_back(c);
  }
  return out;
}

/// A row with NULL in `col` cannot satisfy `conjunct` (conservative).
bool RejectsNullOn(const Expr& conjunct, ColumnRefId col) {
  switch (conjunct.kind()) {
    case ExprKind::kIsNotNull:
      return conjunct.child(0)->kind() == ExprKind::kColumnRef &&
             conjunct.child(0)->column_ref() == col;
    case ExprKind::kComparison:
    case ExprKind::kLike: {
      std::vector<ColumnRefId> cols;
      conjunct.CollectColumnRefs(&cols);
      return std::find(cols.begin(), cols.end(), col) != cols.end();
    }
    default:
      return false;
  }
}

// ---------------------------------------------------------------------------
// Independent shape matching: textual rendering with columns factored out
// ('$'), columns compared positionally under an equality partition.
// ---------------------------------------------------------------------------
struct ProofShape {
  std::string text;
  std::vector<ColumnRefId> columns;
};

ProofShape ShapeOf(const Expr& e) {
  static const std::function<std::string(ColumnRefId)> kDollar =
      [](ColumnRefId) { return std::string("$"); };
  ProofShape s;
  s.text = e.ToString(&kDollar);
  e.CollectColumnRefs(&s.columns);
  return s;
}

bool ShapeEq(const ProofShape& a, const ProofShape& b,
             const ProofClasses& classes) {
  if (a.text != b.text) return false;
  if (a.columns.size() != b.columns.size()) return false;
  for (size_t i = 0; i < a.columns.size(); ++i) {
    if (!classes.Same(a.columns[i], b.columns[i])) return false;
  }
  return true;
}

bool ShapeCovered(const ProofShape& needle,
                  const std::vector<ProofShape>& haystack,
                  const ProofClasses& classes) {
  for (const auto& h : haystack) {
    if (ShapeEq(needle, h, classes)) return true;
  }
  return false;
}

/// Bidirectional cover of two expression lists under `classes`: the lists
/// denote the same set of values (used for grouping lists).
bool ListsMutuallyCover(const std::vector<ProofShape>& a,
                        const std::vector<ProofShape>& b,
                        const ProofClasses& classes) {
  for (const auto& s : a) {
    if (!ShapeCovered(s, b, classes)) return false;
  }
  for (const auto& s : b) {
    if (!ShapeCovered(s, a, classes)) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Table-mapping enumeration (view refs -> query slots, injective, grouped
// by catalog table id).
// ---------------------------------------------------------------------------
struct MappingGroup {
  std::vector<int32_t> query_refs;
  std::vector<int32_t> view_refs;
};

void AssignMappingGroup(const std::vector<MappingGroup>& groups, size_t g,
                        size_t qi, int limit, std::vector<int32_t>* mapping,
                        std::vector<std::vector<int32_t>>* out) {
  if (static_cast<int>(out->size()) >= limit) return;
  if (g == groups.size()) {
    out->push_back(*mapping);
    return;
  }
  const MappingGroup& group = groups[g];
  if (qi == group.query_refs.size()) {
    AssignMappingGroup(groups, g + 1, 0, limit, mapping, out);
    return;
  }
  for (int32_t vref : group.view_refs) {
    if ((*mapping)[vref] != -1) continue;
    (*mapping)[vref] = group.query_refs[qi];
    AssignMappingGroup(groups, g, qi + 1, limit, mapping, out);
    (*mapping)[vref] = -1;
  }
}

/// Empty when some query table has no (or too few) view occurrences.
std::vector<std::vector<int32_t>> EnumerateMappings(const SpjgQuery& query,
                                                    const SpjgQuery& view,
                                                    int limit) {
  std::map<TableId, std::vector<int32_t>> query_refs;
  std::map<TableId, std::vector<int32_t>> view_refs;
  for (int32_t i = 0; i < query.num_tables(); ++i) {
    query_refs[query.tables[i].table].push_back(i);
  }
  for (int32_t i = 0; i < view.num_tables(); ++i) {
    view_refs[view.tables[i].table].push_back(i);
  }
  std::vector<MappingGroup> groups;
  for (const auto& [tid, qrefs] : query_refs) {
    auto it = view_refs.find(tid);
    if (it == view_refs.end() || it->second.size() < qrefs.size()) return {};
    groups.push_back(MappingGroup{qrefs, it->second});
  }
  std::vector<std::vector<int32_t>> out;
  std::vector<int32_t> mapping(view.num_tables(), -1);
  AssignMappingGroup(groups, 0, 0, limit, &mapping, &out);
  return out;
}

/// Keeps the failure that progressed furthest through the proof pipeline
/// (CheckCode values are ordered by pipeline stage).
void KeepFurthestFailure(Verdict* best, Verdict candidate) {
  if (static_cast<int>(candidate.code) > static_cast<int>(best->code)) {
    *best = std::move(candidate);
  }
}

/// Mirrors the contract of ViewDefinition::Validate plus the properties
/// the proof depends on (grouping outputs are grouping expressions; no
/// nested aggregates). Re-derived here so a corrupted in-memory view
/// cannot vouch for itself.
std::optional<std::string> AuditViewContract(const SpjgQuery& vq) {
  if (vq.tables.empty()) return "view has no tables";
  if (vq.outputs.empty()) return "view has no outputs";
  for (const auto& o : vq.outputs) {
    if (o.expr == nullptr) return "view output '" + o.name + "' is null";
  }
  if (!vq.is_aggregate) {
    if (!vq.group_by.empty()) return "SPJ view has grouping expressions";
    for (const auto& o : vq.outputs) {
      if (o.expr->ContainsAggregate()) {
        return "SPJ view output '" + o.name + "' contains an aggregate";
      }
    }
    return std::nullopt;
  }
  for (const auto& g : vq.group_by) {
    if (g == nullptr || g->ContainsAggregate()) {
      return "view grouping expression contains an aggregate";
    }
    bool found = false;
    for (const auto& o : vq.outputs) {
      if (o.expr->Equals(*g)) {
        found = true;
        break;
      }
    }
    if (!found) return "view grouping expression is not an output";
  }
  for (const auto& o : vq.outputs) {
    if (o.expr->kind() == ExprKind::kAggregate) {
      if (o.expr->agg_kind() == AggKind::kAvg) {
        return "view output '" + o.name + "' is an AVG aggregate";
      }
      if (o.expr->num_children() == 1 &&
          o.expr->child(0)->ContainsAggregate()) {
        return "view output '" + o.name + "' nests aggregates";
      }
      continue;
    }
    if (o.expr->ContainsAggregate()) {
      return "view output '" + o.name + "' buries an aggregate";
    }
    bool is_grouping = false;
    for (const auto& g : vq.group_by) {
      if (o.expr->Equals(*g)) {
        is_grouping = true;
        break;
      }
    }
    if (!is_grouping) {
      return "view output '" + o.name +
             "' is neither a grouping expression nor an aggregate";
    }
  }
  return std::nullopt;
}

}  // namespace

RewriteChecker::RewriteChecker(const Catalog* catalog)
    : RewriteChecker(catalog, Options()) {}

RewriteChecker::RewriteChecker(const Catalog* catalog, Options options)
    : catalog_(catalog), options_(options) {}

Verdict RewriteChecker::Check(const SpjgQuery& query,
                              const ViewDefinition& view,
                              const Substitute& sub) const {
  const SpjgQuery& vq = view.query();

  // ---- Structural sanity: arity, names, aggregation flags, reference
  // bounds. Everything past this point may index freely.
  if (sub.view_id != view.id()) {
    return Verdict::Fail(CheckCode::kMalformedSubstitute,
                         "substitute names a different view id");
  }
  if (sub.outputs.size() != query.outputs.size()) {
    return Verdict::Fail(CheckCode::kMalformedSubstitute,
                         "output arity differs from the query");
  }
  for (size_t i = 0; i < sub.outputs.size(); ++i) {
    if (sub.outputs[i].name != query.outputs[i].name) {
      return Verdict::Fail(CheckCode::kMalformedSubstitute,
                           "output name '" + sub.outputs[i].name +
                               "' does not match '" + query.outputs[i].name +
                               "'");
    }
  }
  if (!query.is_aggregate &&
      (sub.needs_aggregation || !sub.group_by.empty())) {
    return Verdict::Fail(CheckCode::kMalformedSubstitute,
                         "aggregating substitute for an SPJ query");
  }
  if (!sub.needs_aggregation && !sub.group_by.empty()) {
    return Verdict::Fail(CheckCode::kMalformedSubstitute,
                         "group-by present without needs_aggregation");
  }
  for (const auto& bj : sub.backjoins) {
    if (bj.table < 0 || bj.table >= catalog_->num_tables()) {
      return Verdict::Fail(CheckCode::kMalformedSubstitute,
                           "backjoin names an unknown table");
    }
    if (bj.key_join.empty()) {
      return Verdict::Fail(CheckCode::kMalformedSubstitute,
                           "backjoin with empty key join");
    }
    const TableDef& t = catalog_->table(bj.table);
    for (const auto& [out, col] : bj.key_join) {
      if (out < 0 || out >= static_cast<int>(vq.outputs.size()) || col < 0 ||
          col >= t.num_columns()) {
        return Verdict::Fail(CheckCode::kMalformedSubstitute,
                             "backjoin key ordinal out of range");
      }
    }
  }
  auto refs_in_bounds = [&](const ExprPtr& e) {
    if (e == nullptr) return false;
    std::vector<ColumnRefId> cols;
    e->CollectColumnRefs(&cols);
    for (ColumnRefId c : cols) {
      if (c.table_ref == 0) {
        if (c.column < 0 ||
            c.column >= static_cast<ColumnOrdinal>(vq.outputs.size())) {
          return false;
        }
      } else if (c.table_ref >= 1 &&
                 c.table_ref <= static_cast<int32_t>(sub.backjoins.size())) {
        const TableDef& t =
            catalog_->table(sub.backjoins[c.table_ref - 1].table);
        if (c.column < 0 || c.column >= t.num_columns()) return false;
      } else {
        return false;
      }
    }
    return true;
  };
  for (const auto& p : sub.predicates) {
    if (!refs_in_bounds(p)) {
      return Verdict::Fail(CheckCode::kMalformedSubstitute,
                           "predicate references outside the view space");
    }
  }
  for (const auto& o : sub.outputs) {
    if (!refs_in_bounds(o.expr)) {
      return Verdict::Fail(CheckCode::kMalformedSubstitute,
                           "output references outside the view space");
    }
  }
  for (const auto& g : sub.group_by) {
    if (!refs_in_bounds(g)) {
      return Verdict::Fail(CheckCode::kMalformedSubstitute,
                           "group-by references outside the view space");
    }
  }

  // ---- The view itself must obey the indexable-view contract the proof
  // relies on (§2).
  if (auto bad = AuditViewContract(vq); bad.has_value()) {
    return Verdict::Fail(CheckCode::kViewNotWellFormed, *bad);
  }

  // Grouping collapses duplicates: an aggregation view can never answer a
  // pure SPJ query, whatever the compensation (§3.3 requirement 3).
  if (vq.is_aggregate && !query.is_aggregate) {
    return Verdict::Fail(CheckCode::kAggregateRewriteUnsound,
                         "aggregation view answers a SPJ query");
  }

  auto mappings =
      EnumerateMappings(query, vq, options_.max_table_mappings);
  if (mappings.empty()) {
    return Verdict::Fail(CheckCode::kNoValidTableMapping,
                         "no injective table mapping covers the query");
  }
  Verdict best = Verdict::Fail(CheckCode::kNoValidTableMapping,
                               "all candidate mappings failed");
  for (const auto& mapping : mappings) {
    Verdict v = CheckWithMapping(query, view, sub, mapping);
    if (v.proven) return v;
    KeepFurthestFailure(&best, std::move(v));
  }
  return best;
}

Verdict RewriteChecker::CheckWithMapping(
    const SpjgQuery& query, const ViewDefinition& view, const Substitute& sub,
    const std::vector<int32_t>& view_to_slot) const {
  const SpjgQuery& vq = view.query();
  const int num_query_tables = query.num_tables();

  // ---- Unified table space: query slots first, then the view's extra
  // references on fresh slots.
  std::vector<int32_t> slot_of(vq.num_tables());
  std::vector<TableRef> unified = query.tables;
  std::vector<int32_t> extra_slots;
  for (int32_t v = 0; v < vq.num_tables(); ++v) {
    if (view_to_slot[v] >= 0) {
      slot_of[v] = view_to_slot[v];
    } else {
      slot_of[v] = static_cast<int32_t>(unified.size());
      unified.push_back(vq.tables[v]);
      extra_slots.push_back(slot_of[v]);
    }
  }
  if (unified.size() > 60) {
    return Verdict::Fail(CheckCode::kNoValidTableMapping,
                         "unified table space too large to analyze");
  }

  std::vector<ExprPtr> view_conjuncts;
  view_conjuncts.reserve(vq.conjuncts.size());
  for (const auto& c : vq.conjuncts) {
    view_conjuncts.push_back(Expr::RemapTableRefs(c, slot_of));
  }
  std::vector<ExprPtr> view_outputs;
  view_outputs.reserve(vq.outputs.size());
  for (const auto& o : vq.outputs) {
    view_outputs.push_back(Expr::RemapTableRefs(o.expr, slot_of));
  }
  std::vector<ExprPtr> view_group_by;
  view_group_by.reserve(vq.group_by.size());
  for (const auto& g : vq.group_by) {
    view_group_by.push_back(Expr::RemapTableRefs(g, slot_of));
  }
  std::vector<ExprPtr> check_conjuncts;
  for (size_t t = 0; t < unified.size(); ++t) {
    for (const auto& c : catalog_->table(unified[t].table).check_constraints()) {
      std::vector<int32_t> self = {static_cast<int32_t>(t)};
      check_conjuncts.push_back(Expr::RemapTableRefs(c, self));
    }
  }

  ProofPreds view_preds = ClassifyForProof(view_conjuncts);
  ProofPreds query_preds = ClassifyForProof(query.conjuncts);
  ProofPreds check_preds = ClassifyForProof(check_conjuncts);

  // Equalities that hold on the view's rows: the view's own equijoins plus
  // CHECK-constraint equalities (true on every base row).
  ProofClasses view_classes;
  for (const auto& [a, b] : view_preds.equalities) view_classes.Merge(a, b);
  for (const auto& [a, b] : check_preds.equalities) view_classes.Merge(a, b);

  // ---- Extra tables must disappear through cardinality-preserving FK
  // joins, re-derived from the catalog (§3.2). Edge admission: the FK
  // target covers a unique key, every FK column is non-null (or the query
  // provably rejects NULL in it), and each column pair is equated on the
  // view's rows.
  std::vector<std::pair<ColumnRefId, ColumnRefId>> fk_equalities;
  if (!extra_slots.empty()) {
    std::vector<ColumnRefId> null_rejected;
    if (options_.allow_nullable_fk_with_null_rejection) {
      for (const auto& p : query_preds.ranges) {
        null_rejected.push_back(p.column);
      }
      for (const auto& [a, b] : query_preds.equalities) {
        null_rejected.push_back(a);
        null_rejected.push_back(b);
      }
      for (const auto& r : query_preds.residuals) {
        std::vector<ColumnRefId> cols;
        r->CollectColumnRefs(&cols);
        for (ColumnRefId c : cols) {
          if (RejectsNullOn(*r, c)) null_rejected.push_back(c);
        }
      }
    }
    auto is_null_rejected = [&](ColumnRefId c) {
      return std::find(null_rejected.begin(), null_rejected.end(), c) !=
             null_rejected.end();
    };

    struct ProofEdge {
      int from;
      int to;
      const ForeignKeyDef* fk;
    };
    std::vector<ProofEdge> edges;
    const int n = static_cast<int>(unified.size());
    for (int i = 0; i < n; ++i) {
      const TableDef& ti = catalog_->table(unified[i].table);
      for (const ForeignKeyDef& fk : ti.foreign_keys()) {
        for (int j = 0; j < n; ++j) {
          if (i == j || fk.referenced_table != unified[j].table) continue;
          const TableDef& tj = catalog_->table(unified[j].table);
          if (!tj.CoversUniqueKey(fk.key_columns)) continue;
          bool ok = true;
          for (size_t k = 0; k < fk.fk_columns.size(); ++k) {
            ColumnRefId fcol{i, fk.fk_columns[k]};
            ColumnRefId kcol{j, fk.key_columns[k]};
            if (!ti.column(fk.fk_columns[k]).not_null &&
                !is_null_rejected(fcol)) {
              ok = false;
              break;
            }
            if (!view_classes.Same(fcol, kcol)) {
              ok = false;
              break;
            }
          }
          if (!ok) continue;
          bool dup = false;
          for (const auto& e : edges) {
            if (e.from == i && e.to == j) {
              dup = true;
              break;
            }
          }
          if (!dup) edges.push_back(ProofEdge{i, j, &fk});
        }
      }
    }

    // Repeatedly remove any extra slot with no outgoing and exactly one
    // incoming edge among remaining slots; the surviving in-edge's column
    // equalities then hold on the (extended) query rows.
    std::vector<bool> alive(n, true);
    bool changed = true;
    while (changed) {
      changed = false;
      for (int v = num_query_tables; v < n; ++v) {
        if (!alive[v]) continue;
        int out_deg = 0;
        int in_deg = 0;
        const ProofEdge* in_edge = nullptr;
        for (const auto& e : edges) {
          if (!alive[e.from] || !alive[e.to]) continue;
          if (e.from == v) ++out_deg;
          if (e.to == v) {
            ++in_deg;
            in_edge = &e;
          }
        }
        if (out_deg == 0 && in_deg == 1) {
          alive[v] = false;
          for (size_t k = 0; k < in_edge->fk->fk_columns.size(); ++k) {
            fk_equalities.emplace_back(
                ColumnRefId{in_edge->from, in_edge->fk->fk_columns[k]},
                ColumnRefId{in_edge->to, in_edge->fk->key_columns[k]});
          }
          changed = true;
        }
      }
    }
    for (int v = num_query_tables; v < n; ++v) {
      if (alive[v]) {
        return Verdict::Fail(
            CheckCode::kNoValidTableMapping,
            "extra view table '" + catalog_->table(unified[v].table).name() +
                "' not removable by cardinality-preserving joins");
      }
    }
  }

  // ---- Backjoin justification (§7 extension): each backjoined table
  // must correspond to a unified slot whose unique key the view outputs,
  // with key values equal on the view's rows. Self-joins can make the
  // slot ambiguous, so candidate assignments are enumerated.
  std::vector<std::vector<int32_t>> backjoin_candidates;
  for (const auto& bj : sub.backjoins) {
    std::vector<int32_t> candidates;
    const TableDef& t = catalog_->table(bj.table);
    std::vector<ColumnOrdinal> key_cols;
    for (const auto& [out, col] : bj.key_join) {
      (void)out;
      key_cols.push_back(col);
    }
    if (!t.CoversUniqueKey(key_cols)) {
      return Verdict::Fail(CheckCode::kBackjoinNotJustified,
                           "backjoin key of '" + t.name() +
                               "' does not cover a unique key");
    }
    for (size_t s = 0; s < unified.size(); ++s) {
      if (unified[s].table != bj.table) continue;
      bool ok = true;
      for (const auto& [out, col] : bj.key_join) {
        const Expr& vout = *view_outputs[out];
        if (vout.kind() != ExprKind::kColumnRef ||
            !view_classes.Same(vout.column_ref(),
                               ColumnRefId{static_cast<int32_t>(s), col})) {
          ok = false;
          break;
        }
      }
      if (ok) candidates.push_back(static_cast<int32_t>(s));
    }
    if (candidates.empty()) {
      return Verdict::Fail(CheckCode::kBackjoinNotJustified,
                           "no view table slot justifies the backjoin to '" +
                               t.name() + "'");
    }
    backjoin_candidates.push_back(std::move(candidates));
  }

  // ---- Core proof for one backjoin slot assignment. `expand` inlines a
  // substitute-space expression into the unified space: view output refs
  // become the view's output expressions, backjoin refs become base
  // columns of the assigned slot.
  auto prove = [&](const std::vector<int32_t>& backjoin_slot) -> Verdict {
    auto expand = [&](const ExprPtr& e) -> ExprPtr {
      return e->RewriteColumns([&](ColumnRefId c) -> ExprPtr {
        if (c.table_ref == 0) return view_outputs[c.column];
        return Expr::MakeColumn(backjoin_slot[c.table_ref - 1], c.column);
      });
    };

    std::vector<ExprPtr> comp_preds;
    comp_preds.reserve(sub.predicates.size());
    for (const auto& p : sub.predicates) {
      ExprPtr ex = expand(p);
      if (ex->ContainsAggregate()) {
        return Verdict::Fail(
            CheckCode::kAggregateRewriteUnsound,
            "compensating predicate filters on an aggregate output");
      }
      comp_preds.push_back(std::move(ex));
    }
    ProofPreds comp = ClassifyForProof(comp_preds);

    // Obligation 2a: equal equality partitions. Query side: query
    // equijoins, CHECK equalities, and the equalities contributed by the
    // removed FK joins. Substitute side: the view's rows filtered by the
    // inlined compensation.
    ProofClasses query_classes;
    for (const auto& [a, b] : query_preds.equalities) query_classes.Merge(a, b);
    for (const auto& [a, b] : check_preds.equalities) query_classes.Merge(a, b);
    for (const auto& [a, b] : fk_equalities) query_classes.Merge(a, b);
    ProofClasses sub_classes;
    for (const auto& [a, b] : view_preds.equalities) sub_classes.Merge(a, b);
    for (const auto& [a, b] : check_preds.equalities) sub_classes.Merge(a, b);
    for (const auto& [a, b] : comp.equalities) sub_classes.Merge(a, b);
    std::string why;
    if (!PartitionsEqual(query_classes, sub_classes, &why)) {
      return Verdict::Fail(CheckCode::kEqualityNotEquivalent, why);
    }

    // Obligation 2b: identical folded range intervals per equivalence
    // class, CHECK ranges folded into both sides.
    std::map<int, ProofInterval> query_ranges;
    std::map<int, ProofInterval> sub_ranges;
    auto fold = [&](std::map<int, ProofInterval>* into,
                    const std::vector<ProofRange>& ranges) {
      for (const auto& r : ranges) {
        query_classes.Ensure(r.column);
        (*into)[query_classes.RootOf(r.column)].Apply(r.op, r.bound);
      }
    };
    fold(&query_ranges, query_preds.ranges);
    fold(&query_ranges, check_preds.ranges);
    fold(&sub_ranges, view_preds.ranges);
    fold(&sub_ranges, comp.ranges);
    fold(&sub_ranges, check_preds.ranges);
    for (const auto& [cls, qi] : query_ranges) {
      auto it = sub_ranges.find(cls);
      ProofInterval si = it == sub_ranges.end() ? ProofInterval{} : it->second;
      if (!qi.SameAs(si)) {
        return Verdict::Fail(CheckCode::kRangeNotEquivalent,
                             "class range differs: query " + qi.Describe() +
                                 " vs substitute " + si.Describe());
      }
    }
    for (const auto& [cls, si] : sub_ranges) {
      if (query_ranges.find(cls) == query_ranges.end() &&
          !si.SameAs(ProofInterval{})) {
        return Verdict::Fail(CheckCode::kRangeNotEquivalent,
                             "substitute constrains an unconstrained class "
                             "to " + si.Describe());
      }
    }

    // Obligation 2c: residual conjuncts mutually covered (CHECK residuals
    // discharge either side — they hold on every row).
    std::vector<ProofShape> query_residuals;
    for (const auto& r : query_preds.residuals) {
      query_residuals.push_back(ShapeOf(*r));
    }
    std::vector<ProofShape> sub_residuals;
    for (const auto& r : view_preds.residuals) {
      sub_residuals.push_back(ShapeOf(*r));
    }
    for (const auto& r : comp.residuals) sub_residuals.push_back(ShapeOf(*r));
    std::vector<ProofShape> check_residuals;
    for (const auto& r : check_preds.residuals) {
      check_residuals.push_back(ShapeOf(*r));
    }
    for (const auto& s : sub_residuals) {
      if (!ShapeCovered(s, query_residuals, query_classes) &&
          !ShapeCovered(s, check_residuals, query_classes)) {
        return Verdict::Fail(CheckCode::kResidualNotEquivalent,
                             "substitute residual not implied by the query: " +
                                 s.text);
      }
    }
    for (const auto& s : query_residuals) {
      if (!ShapeCovered(s, sub_residuals, query_classes) &&
          !ShapeCovered(s, check_residuals, query_classes)) {
        return Verdict::Fail(CheckCode::kResidualNotEquivalent,
                             "query residual not enforced by the substitute: " +
                                 s.text);
      }
    }

    // ---- Obligation 3: outputs (and grouping) compute the query.
    auto expanded_shape_matches = [&](const ExprPtr& sub_expr,
                                      const Expr& query_expr) {
      ExprPtr ex = expand(sub_expr);
      return ShapeEq(ShapeOf(*ex), ShapeOf(query_expr), query_classes);
    };

    if (!query.is_aggregate) {
      // SPJ from SPJ (aggregation views were rejected up front): row sets
      // are bag-equal, so per-row value equality suffices.
      for (size_t i = 0; i < sub.outputs.size(); ++i) {
        if (!expanded_shape_matches(sub.outputs[i].expr,
                                    *query.outputs[i].expr)) {
          return Verdict::Fail(CheckCode::kOutputNotEquivalent,
                               "output '" + query.outputs[i].name +
                                   "' computes a different expression");
        }
      }
      return Verdict::Ok();
    }

    // Aggregate query. First the grouping partition.
    std::vector<ProofShape> query_grouping;
    for (const auto& g : query.group_by) query_grouping.push_back(ShapeOf(*g));
    if (sub.needs_aggregation) {
      // The substitute re-aggregates: its grouping list must induce
      // exactly the query's partition, and must be aggregate-free (a
      // view-group must fall wholly inside one query group for rollups
      // to be legal).
      std::vector<ProofShape> sub_grouping;
      for (const auto& g : sub.group_by) {
        ExprPtr ex = expand(g);
        if (ex->ContainsAggregate()) {
          return Verdict::Fail(CheckCode::kAggregateRewriteUnsound,
                               "compensating group-by over an aggregate");
        }
        sub_grouping.push_back(ShapeOf(*ex));
      }
      if (!ListsMutuallyCover(sub_grouping, query_grouping, query_classes)) {
        return Verdict::Fail(CheckCode::kGroupingNotEquivalent,
                             "compensating grouping induces a different "
                             "partition than the query grouping");
      }
    } else {
      // No re-aggregation: the view's own groups must coincide with the
      // query's groups row-for-row.
      std::vector<ProofShape> vg;
      for (const auto& g : view_group_by) vg.push_back(ShapeOf(*g));
      if (!ListsMutuallyCover(vg, query_grouping, query_classes)) {
        return Verdict::Fail(CheckCode::kGroupingNotEquivalent,
                             "view grouping does not coincide with the query "
                             "grouping (re-aggregation required)");
      }
    }

    // Then each output.
    for (size_t i = 0; i < sub.outputs.size(); ++i) {
      const Expr& q = *query.outputs[i].expr;
      const ExprPtr& s = sub.outputs[i].expr;
      const std::string& name = query.outputs[i].name;
      auto fail_out = [&](const char* what) {
        return Verdict::Fail(CheckCode::kAggregateRewriteUnsound,
                             "output '" + name + "': " + what);
      };

      if (q.kind() != ExprKind::kAggregate) {
        // Grouping output: group-constant on both sides, equal per row.
        ExprPtr ex = expand(s);
        if (ex->ContainsAggregate()) {
          return fail_out("grouping output reads an aggregate");
        }
        if (!ShapeEq(ShapeOf(*ex), ShapeOf(q), query_classes)) {
          return Verdict::Fail(CheckCode::kOutputNotEquivalent,
                               "output '" + name +
                                   "' computes a different expression");
        }
        continue;
      }

      const AggKind kind = q.agg_kind();
      if (!vq.is_aggregate) {
        // Compensating aggregation over an SPJ view: same aggregate over
        // an argument equal per (1:1) row.
        if (s->kind() != ExprKind::kAggregate || s->agg_kind() != kind) {
          return fail_out("compensating aggregate has the wrong function");
        }
        if (kind == AggKind::kCountStar) {
          if (s->num_children() != 0) {
            return fail_out("count(*) takes no argument");
          }
          continue;
        }
        if (s->num_children() != 1 ||
            !expanded_shape_matches(s->child(0), *q.child(0))) {
          return fail_out("aggregate argument computes a different value");
        }
        continue;
      }

      // Aggregation view: the substitute reads (and possibly rolls up)
      // pre-computed aggregates. Only the algebraically valid patterns
      // are accepted (§3.3; SUM/COUNT combine by SUM, MIN/MAX by
      // themselves, AVG = SUM / COUNT).
      const bool regroup = sub.needs_aggregation;
      // `inner` must expand to the view's aggregate `want(kind, arg)`.
      auto expands_to_view_agg = [&](const ExprPtr& inner, AggKind want,
                                     const Expr* want_arg) {
        ExprPtr ex = expand(inner);
        if (ex->kind() != ExprKind::kAggregate || ex->agg_kind() != want) {
          return false;
        }
        if (want == AggKind::kCountStar) return ex->num_children() == 0;
        return ex->num_children() == 1 && want_arg != nullptr &&
               ShapeEq(ShapeOf(*ex->child(0)), ShapeOf(*want_arg),
                       query_classes);
      };

      switch (kind) {
        case AggKind::kCountStar: {
          if (regroup) {
            if (s->kind() != ExprKind::kAggregate ||
                s->agg_kind() != AggKind::kSum || s->num_children() != 1 ||
                !expands_to_view_agg(s->child(0), AggKind::kCountStar,
                                     nullptr)) {
              return fail_out("count(*) must roll up as SUM(count column)");
            }
          } else if (!expands_to_view_agg(s, AggKind::kCountStar, nullptr)) {
            return fail_out("count(*) must read the view's count column");
          }
          break;
        }
        case AggKind::kSum:
        case AggKind::kMin:
        case AggKind::kMax: {
          if (regroup) {
            // SUM rolls up with SUM, MIN/MAX with themselves.
            if (s->kind() != ExprKind::kAggregate || s->agg_kind() != kind ||
                s->num_children() != 1 ||
                !expands_to_view_agg(s->child(0), kind, q.child(0).get())) {
              return fail_out("rollup must re-apply the aggregate to the "
                              "view's matching aggregate column");
            }
          } else if (!expands_to_view_agg(s, kind, q.child(0).get())) {
            return fail_out("must read the view's matching aggregate column");
          }
          break;
        }
        case AggKind::kAvg: {
          // AVG(E) = SUM(E) / COUNT(*), each side rolled up when
          // regrouping.
          if (s->kind() != ExprKind::kArithmetic ||
              s->arith_op() != ArithOp::kDiv) {
            return fail_out("AVG must be computed as SUM / COUNT");
          }
          ExprPtr num = s->child(0);
          ExprPtr den = s->child(1);
          if (regroup) {
            if (num->kind() != ExprKind::kAggregate ||
                num->agg_kind() != AggKind::kSum ||
                num->num_children() != 1 ||
                den->kind() != ExprKind::kAggregate ||
                den->agg_kind() != AggKind::kSum ||
                den->num_children() != 1) {
              return fail_out("AVG rollup must SUM both sum and count");
            }
            num = num->child(0);
            den = den->child(0);
          }
          if (!expands_to_view_agg(num, AggKind::kSum, q.child(0).get()) ||
              !expands_to_view_agg(den, AggKind::kCountStar, nullptr)) {
            return fail_out("AVG numerator/denominator do not read the "
                            "view's sum and count columns");
          }
          break;
        }
      }
    }
    return Verdict::Ok();
  };

  // Try every capped combination of backjoin slot assignments.
  std::vector<int32_t> assignment(sub.backjoins.size(), -1);
  Verdict best = Verdict::Fail(CheckCode::kBackjoinNotJustified,
                               "no backjoin slot assignment succeeded");
  int tried = 0;
  std::function<bool(size_t)> try_assign = [&](size_t j) -> bool {
    if (tried >= options_.max_backjoin_assignments) return false;
    if (j == backjoin_candidates.size()) {
      ++tried;
      Verdict v = prove(assignment);
      if (v.proven) {
        best = std::move(v);
        return true;
      }
      KeepFurthestFailure(&best, std::move(v));
      return false;
    }
    for (int32_t slot : backjoin_candidates[j]) {
      assignment[j] = slot;
      if (try_assign(j + 1)) return true;
    }
    return false;
  };
  try_assign(0);
  return best;
}

}  // namespace mvopt
