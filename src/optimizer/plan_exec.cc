#include "optimizer/plan_exec.h"

#include <cassert>
#include <unordered_map>

#include "common/failpoint.h"

namespace mvopt {

std::vector<Row> PlanExecutor::Execute(const PhysPlanPtr& root) {
  assert(root != nullptr);
  MVOPT_FAILPOINT("plan_exec.execute");
  return Run(*root).rows;
}

PlanExecutor::Result PlanExecutor::Run(const PhysPlan& plan) {
  switch (plan.kind) {
    case PhysKind::kTableScan:
    case PhysKind::kIndexRangeScan:
      return RunScan(plan);
    case PhysKind::kViewScan:
    case PhysKind::kViewIndexScan:
      return RunViewScan(plan);
    case PhysKind::kHashJoin:
      return RunJoin(plan);
    case PhysKind::kHashAggregate:
      return RunAggregate(plan);
    case PhysKind::kProject:
      return RunProject(plan);
  }
  return Result{};
}

PlanExecutor::Result PlanExecutor::RunScan(const PhysPlan& plan) {
  const TableData* data = db_->table(plan.table);
  assert(data != nullptr && "table not loaded");
  Result out;
  out.width = data->num_columns();
  for (int c = 0; c < data->num_columns(); ++c) {
    out.slots[ColumnRefId{plan.table_ref, c}] = c;
  }
  std::vector<ExprPtr> bound;
  for (const auto& f : plan.filter) {
    ExprPtr b = BindToSlots(f, out.slots);
    assert(b != nullptr);
    bound.push_back(std::move(b));
  }
  auto passes = [&bound](const Row& row) {
    for (const auto& p : bound) {
      if (!EvalPredicate(*p, row)) return false;
    }
    return true;
  };
  if (plan.kind == PhysKind::kIndexRangeScan) {
    const OrderedIndex* index = nullptr;
    for (const auto& idx : data->indexes()) {
      if (idx.name == plan.index_name) index = &idx;
    }
    assert(index != nullptr && "index not built");
    auto [begin, end] = data->IndexRange(*index, plan.index_range);
    for (size_t i = begin; i < end; ++i) {
      const Row& row = data->rows()[index->order[i]];
      if (passes(row)) out.rows.push_back(row);
    }
  } else {
    for (const Row& row : data->rows()) {
      if (passes(row)) out.rows.push_back(row);
    }
  }
  return out;
}

PlanExecutor::Result PlanExecutor::RunViewScan(const PhysPlan& plan) {
  assert(plan.table != kInvalidTableId && "view must be materialized");
  const TableData* data = db_->table(plan.table);
  assert(data != nullptr);
  const Substitute& sub = *plan.substitute;

  if (!sub.backjoins.empty()) {
    // Backjoin substitutes reference base tables; delegate to the
    // reference executor over the substitute's SPJG form.
    Result out;
    out.rows = db_->ExecuteSpjg(sub.ToQueryOverView(plan.table));
    out.width = static_cast<int>(sub.outputs.size());
    for (size_t i = 0; i < plan.provides.size(); ++i) {
      out.slots[plan.provides[i]] = static_cast<int>(i);
    }
    return out;
  }

  // Compensating predicates and outputs are already in view-output space
  // ({0, ordinal}), i.e., directly evaluable over raw view rows.
  auto passes = [&sub](const Row& row) {
    for (const auto& p : sub.predicates) {
      if (!EvalPredicate(*p, row)) return false;
    }
    return true;
  };
  std::vector<Row> selected;
  if (plan.kind == PhysKind::kViewIndexScan) {
    const OrderedIndex* index = nullptr;
    for (const auto& idx : data->indexes()) {
      if (idx.name == plan.index_name) index = &idx;
    }
    assert(index != nullptr && "view index not built");
    auto [begin, end] = data->IndexRange(*index, plan.index_range);
    for (size_t i = begin; i < end; ++i) {
      const Row& row = data->rows()[index->order[i]];
      if (passes(row)) selected.push_back(row);
    }
  } else {
    for (const Row& row : data->rows()) {
      if (passes(row)) selected.push_back(row);
    }
  }

  std::vector<ExprPtr> outputs;
  for (const auto& o : sub.outputs) outputs.push_back(o.expr);
  Result out;
  out.rows = ProjectAndAggregate(selected, outputs, sub.group_by,
                                 sub.needs_aggregation);
  out.width = static_cast<int>(outputs.size());
  for (size_t i = 0; i < plan.provides.size(); ++i) {
    out.slots[plan.provides[i]] = static_cast<int>(i);
  }
  return out;
}

PlanExecutor::Result PlanExecutor::RunJoin(const PhysPlan& plan) {
  Result left = Run(*plan.children[0]);
  Result right = Run(*plan.children[1]);

  // Split the crossing predicates into hash keys (column equalities with
  // one side per input) and residual filters.
  std::vector<std::pair<int, int>> key_slots;  // (left slot, right slot)
  std::vector<ExprPtr> residual;
  for (const auto& f : plan.filter) {
    bool is_key = false;
    if (f->kind() == ExprKind::kComparison &&
        f->compare_op() == CompareOp::kEq &&
        f->child(0)->kind() == ExprKind::kColumnRef &&
        f->child(1)->kind() == ExprKind::kColumnRef) {
      ColumnRefId a = f->child(0)->column_ref();
      ColumnRefId b = f->child(1)->column_ref();
      auto la = left.slots.find(a);
      auto rb = right.slots.find(b);
      if (la != left.slots.end() && rb != right.slots.end()) {
        key_slots.emplace_back(la->second, rb->second);
        is_key = true;
      } else {
        auto lb = left.slots.find(b);
        auto ra = right.slots.find(a);
        if (lb != left.slots.end() && ra != right.slots.end()) {
          key_slots.emplace_back(lb->second, ra->second);
          is_key = true;
        }
      }
    }
    if (!is_key) residual.push_back(f);
  }

  Result out;
  out.width = left.width + right.width;
  out.slots = left.slots;
  for (const auto& [ref, slot] : right.slots) {
    out.slots[ref] = slot + left.width;
  }
  std::vector<ExprPtr> bound_residual;
  for (const auto& f : residual) {
    ExprPtr b = BindToSlots(f, out.slots);
    assert(b != nullptr);
    bound_residual.push_back(std::move(b));
  }

  auto emit = [&](const Row& l, const Row& r) {
    Row combined;
    combined.reserve(out.width);
    combined.insert(combined.end(), l.begin(), l.end());
    combined.insert(combined.end(), r.begin(), r.end());
    for (const auto& p : bound_residual) {
      if (!EvalPredicate(*p, combined)) return;
    }
    out.rows.push_back(std::move(combined));
  };

  if (key_slots.empty()) {
    // Cross product with residual filters.
    for (const Row& l : left.rows) {
      for (const Row& r : right.rows) emit(l, r);
    }
    return out;
  }

  // Hash join; SQL equality — null keys never match.
  std::unordered_map<Row, std::vector<const Row*>, RowHash, RowEq> table;
  for (const Row& r : right.rows) {
    Row key;
    key.reserve(key_slots.size());
    bool has_null = false;
    for (const auto& [ls, rs] : key_slots) {
      (void)ls;
      if (r[rs].is_null()) {
        has_null = true;
        break;
      }
      key.push_back(r[rs]);
    }
    if (!has_null) table[std::move(key)].push_back(&r);
  }
  for (const Row& l : left.rows) {
    Row key;
    key.reserve(key_slots.size());
    bool has_null = false;
    for (const auto& [ls, rs] : key_slots) {
      (void)rs;
      if (l[ls].is_null()) {
        has_null = true;
        break;
      }
      key.push_back(l[ls]);
    }
    if (has_null) continue;
    auto it = table.find(key);
    if (it == table.end()) continue;
    for (const Row* r : it->second) emit(l, *r);
  }
  return out;
}

PlanExecutor::Result PlanExecutor::RunAggregate(const PhysPlan& plan) {
  Result child = Run(*plan.children[0]);
  std::vector<ExprPtr> bound_outputs;
  for (const auto& o : plan.outputs) {
    ExprPtr b = BindToSlots(o.expr, child.slots);
    assert(b != nullptr);
    bound_outputs.push_back(std::move(b));
  }
  std::vector<ExprPtr> bound_group_by;
  for (const auto& g : plan.group_by) {
    ExprPtr b = BindToSlots(g, child.slots);
    assert(b != nullptr);
    bound_group_by.push_back(std::move(b));
  }
  Result out;
  out.rows = ProjectAndAggregate(child.rows, bound_outputs, bound_group_by,
                                 /*is_aggregate=*/true);
  out.width = static_cast<int>(plan.outputs.size());
  for (size_t i = 0; i < plan.outputs.size(); ++i) {
    const Expr& oe = *plan.outputs[i].expr;
    if (oe.kind() == ExprKind::kColumnRef &&
        oe.column_ref().table_ref < kSyntheticRefBase) {
      out.slots[oe.column_ref()] = static_cast<int>(i);
    } else {
      out.slots[ColumnRefId{kSyntheticRefBase + plan.agg_spec_id,
                            static_cast<ColumnOrdinal>(i)}] =
          static_cast<int>(i);
    }
  }
  return out;
}

PlanExecutor::Result PlanExecutor::RunProject(const PhysPlan& plan) {
  Result child = Run(*plan.children[0]);
  Result out;
  out.width = static_cast<int>(plan.outputs.size());
  std::vector<ExprPtr> bound;
  for (const auto& o : plan.outputs) {
    ExprPtr b = BindToSlots(o.expr, child.slots);
    assert(b != nullptr);
    bound.push_back(std::move(b));
  }
  out.rows.reserve(child.rows.size());
  for (const Row& row : child.rows) {
    Row projected;
    projected.reserve(bound.size());
    for (const auto& e : bound) projected.push_back(EvalScalar(*e, row));
    out.rows.push_back(std::move(projected));
  }
  for (size_t i = 0; i < plan.outputs.size(); ++i) {
    const Expr& oe = *plan.outputs[i].expr;
    if (oe.kind() == ExprKind::kColumnRef &&
        oe.column_ref().table_ref < kSyntheticRefBase) {
      out.slots[oe.column_ref()] = static_cast<int>(i);
    }
  }
  return out;
}

}  // namespace mvopt
