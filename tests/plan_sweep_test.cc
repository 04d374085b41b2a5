// Sweeps the optimizer over the §5 workload (1,000 views, 1,000 queries,
// filter tree on).
//
// PlansMatchPinnedDigest and its two variants pin every plan chosen to a
// digest recorded from a known-good build: each plan's text, every
// node's cost and row estimate to the bit, its filter predicates,
// whether it uses a view, the memo's group, expression, rule-invocation
// and substitute counts and the degradation reason. A change that is
// meant to leave optimization behaviour alone (a refactor, a performance
// change) must leave these digests unchanged. Three runs per seed:
// plain; with the memo audit on (no violations, and the same plans); and
// under a memo-expression cap, which pins degraded plans and their
// reasons too.
//
// GroupSignaturesEqualFreshRemaps runs the same queries against a source
// that records every signature the memo groups probe with and offers no
// substitutes, and checks each against one built from scratch for its
// group.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "optimizer/optimizer.h"

namespace mvopt {
namespace {

uint64_t HashBytes(uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;  // FNV-1a
  }
  return h;
}

std::string HexFloat(double x) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", x);
  return buf;
}

uint64_t FoldNode(uint64_t h, const PhysPlan& node) {
  h = HashBytes(h, HexFloat(node.cost) + "/" + HexFloat(node.rows));
  for (const ExprPtr& f : node.filter) h = HashBytes(h, f->ToString());
  for (const PhysPlanPtr& c : node.children) h = FoldNode(h, *c);
  return h;
}

uint64_t FoldResult(uint64_t h, const Catalog& catalog,
                    const OptimizationResult& r) {
  if (r.plan == nullptr) {
    h = HashBytes(h, "<none>");
  } else {
    h = HashBytes(h, r.plan->ToString(catalog));
    h = FoldNode(h, *r.plan);
  }
  h = HashBytes(h, HexFloat(r.cost));
  h = HashBytes(h, r.uses_view ? "V" : "B");
  h = HashBytes(h, DegradationReasonName(r.degradation));
  const OptimizerMetrics& m = r.metrics;
  for (int64_t count :
       {m.groups_created, m.expressions_generated,
        m.view_matching_invocations, m.substitutes_produced,
        m.view_matching_failures}) {
    h = HashBytes(h, std::to_string(count) + ";");
  }
  return h;
}

enum class Mode { kPlain, kAudited, kMemoExprCap };

/// Memo-expression cap of the degraded run: every group's first split
/// is free, so this degrades the wider queries and leaves the narrow
/// ones whole.
constexpr int64_t kMemoExprCap = 6;

struct SweepOutcome {
  uint64_t digest = 0xcbf29ce484222325ull;
  int degraded = 0;
  int uses_view = 0;
  int64_t audit_violations = 0;
};

SweepOutcome RunSweep(uint64_t seed, Mode mode) {
  bench::Workload workload(/*num_views=*/1000, /*num_queries=*/1000, seed);
  auto service = workload.MakeService(1000, /*use_filter_tree=*/true);
  OptimizerOptions options;
  options.audit_memo = mode == Mode::kAudited;
  Optimizer optimizer(&workload.catalog(), service.get(), options);
  SweepOutcome out;
  for (const SpjgQuery& q : workload.queries()) {
    QueryContext ctx;
    if (mode == Mode::kMemoExprCap) {
      ctx.EmplaceBudget().set_memo_expr_cap(kMemoExprCap);
    }
    const OptimizationResult r = optimizer.Optimize(q, ctx);
    out.digest = FoldResult(out.digest, workload.catalog(), r);
    if (r.degradation != DegradationReason::kNone) ++out.degraded;
    if (r.uses_view) ++out.uses_view;
    out.audit_violations +=
        static_cast<int64_t>(r.memo_audit.violations.size());
  }
  return out;
}

std::string Hex(uint64_t x) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(x));
  return buf;
}

struct PinnedDigests {
  uint64_t seed;
  uint64_t full;         // plain and audited runs
  uint64_t memo_capped;  // kMemoExprCap run
};

// Recorded from the optimizer before the per-query memo caches existed.
constexpr PinnedDigests kPinned[] = {
    {1, 0xd56aa214f38c1dc3ull, 0x4fa5ce84c4b0b058ull},
    {17, 0x5e7930d1cc1c9b4cull, 0x0914227e83371704ull},
};

const PinnedDigests& PinnedFor(uint64_t seed) {
  for (const PinnedDigests& p : kPinned) {
    if (p.seed == seed) return p;
  }
  ADD_FAILURE() << "no pinned digest for seed " << seed;
  return kPinned[0];
}

class PlanSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PlanSweepTest, PlansMatchPinnedDigest) {
  const SweepOutcome out = RunSweep(GetParam(), Mode::kPlain);
  EXPECT_EQ(out.degraded, 0);
  EXPECT_GT(out.uses_view, 0);
  EXPECT_EQ(Hex(out.digest), Hex(PinnedFor(GetParam()).full));
}

TEST_P(PlanSweepTest, AuditedMemoIsCleanAndPlansMatchPinnedDigest) {
  const SweepOutcome out = RunSweep(GetParam(), Mode::kAudited);
  EXPECT_EQ(out.audit_violations, 0);
  EXPECT_EQ(Hex(out.digest), Hex(PinnedFor(GetParam()).full));
}

TEST_P(PlanSweepTest, MemoExprCapDegradedPlansMatchPinnedDigest) {
  const SweepOutcome out = RunSweep(GetParam(), Mode::kMemoExprCap);
  // The cap must bite on some queries and spare others, or the run pins
  // only one of the two paths.
  EXPECT_GT(out.degraded, 0);
  EXPECT_LT(out.degraded, 1000);
  EXPECT_EQ(Hex(out.digest), Hex(PinnedFor(GetParam()).memo_capped));
}

/// The signature of the group over `sig`'s tables, built from scratch
/// as one group at a time would: a fresh remap of every conjunct inside
/// the group and a fresh node per output column. `query` must not join a
/// table to itself, so that the tables name the group. Nullopt for a
/// pre-aggregation spec's group, whose spec the query does not hold.
std::optional<SpjgQuery> FreshSignature(const SpjgQuery& query,
                                        const SpjgQuery& sig) {
  uint32_t mask = 0;
  for (const TableRef& tr : sig.tables) {
    for (int t = 0; t < query.num_tables(); ++t) {
      if (query.tables[t].table == tr.table) mask |= 1u << t;
    }
  }
  const uint32_t full = (1u << query.num_tables()) - 1;
  if (sig.is_aggregate && mask != full) return std::nullopt;
  std::vector<int32_t> remap(query.tables.size(), -1);
  SpjgQuery fresh;
  for (int t = 0; t < query.num_tables(); ++t) {
    if ((mask & (1u << t)) == 0) continue;
    remap[t] = static_cast<int32_t>(fresh.tables.size());
    fresh.tables.push_back(query.tables[t]);
  }
  auto inside = [mask](const ExprPtr& e) {
    std::vector<ColumnRefId> cols;
    e->CollectColumnRefs(&cols);
    return std::all_of(cols.begin(), cols.end(), [mask](ColumnRefId c) {
      return (mask & (1u << c.table_ref)) != 0;
    });
  };
  auto fresh_remap = [&remap](const ExprPtr& e) {
    return e->RewriteColumns([&remap](ColumnRefId c) {
      return Expr::MakeColumn(remap[c.table_ref], c.column);
    });
  };
  for (const ExprPtr& c : query.conjuncts) {
    if (inside(c)) fresh.conjuncts.push_back(fresh_remap(c));
  }
  if (sig.is_aggregate) {
    for (const ExprPtr& g : query.group_by) {
      fresh.group_by.push_back(fresh_remap(g));
    }
    for (const OutputExpr& o : query.outputs) {
      fresh.outputs.push_back(OutputExpr{o.name, fresh_remap(o.expr)});
    }
    fresh.is_aggregate = true;
    return fresh;
  }
  std::vector<ColumnRefId> required;
  auto collect = [&](const ExprPtr& e) {
    std::vector<ColumnRefId> cols;
    e->CollectColumnRefs(&cols);
    for (ColumnRefId c : cols) {
      if (mask & (1u << c.table_ref)) required.push_back(c);
    }
  };
  for (const ExprPtr& c : query.conjuncts) collect(c);
  for (const OutputExpr& o : query.outputs) collect(o.expr);
  for (const ExprPtr& g : query.group_by) collect(g);
  std::sort(required.begin(), required.end());
  required.erase(std::unique(required.begin(), required.end()),
                 required.end());
  for (size_t i = 0; i < required.size(); ++i) {
    fresh.outputs.push_back(OutputExpr{
        "o" + std::to_string(i),
        Expr::MakeColumn(remap[required[i].table_ref], required[i].column)});
  }
  return fresh;
}

void ExpectSameExprs(const std::vector<ExprPtr>& got,
                     const std::vector<ExprPtr>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(got[i]->Equals(*want[i]))
        << what << " " << i << ": " << got[i]->ToString() << " vs "
        << want[i]->ToString();
  }
}

/// Records every signature the rule probes with and offers no
/// substitutes: exploration, and so every signature, does not depend on
/// what the rule returns.
class SignatureRecorder : public SubstituteSource {
 public:
  std::vector<Substitute> FindSubstitutes(const SpjgQuery& query,
                                          QueryContext&) override {
    signatures.push_back(query);
    return {};
  }
  std::optional<UnionSubstitute> FindUnionSubstitute(
      const SpjgQuery&, QueryContext&) override {
    return std::nullopt;
  }
  const ViewDefinition& ResolveView(ViewId id) const override {
    throw std::out_of_range("no view " + std::to_string(id));
  }

  std::vector<SpjgQuery> signatures;
};

TEST_P(PlanSweepTest, GroupSignaturesEqualFreshRemaps) {
  bench::Workload workload(/*num_views=*/0, /*num_queries=*/1000,
                           GetParam());
  SignatureRecorder recorder;
  Optimizer optimizer(&workload.catalog(), &recorder);
  int64_t checked = 0;
  for (const SpjgQuery& q : workload.queries()) {
    const size_t first = recorder.signatures.size();
    QueryContext ctx;
    (void)optimizer.Optimize(q, ctx);
    std::vector<TableId> tables;
    for (const TableRef& tr : q.tables) tables.push_back(tr.table);
    std::sort(tables.begin(), tables.end());
    if (std::adjacent_find(tables.begin(), tables.end()) != tables.end()) {
      continue;
    }
    for (size_t i = first; i < recorder.signatures.size(); ++i) {
      const SpjgQuery& sig = recorder.signatures[i];
      const std::optional<SpjgQuery> fresh = FreshSignature(q, sig);
      if (!fresh.has_value()) continue;
      SCOPED_TRACE(sig.ToSql(workload.catalog()));
      ASSERT_EQ(sig.tables.size(), fresh->tables.size());
      for (size_t t = 0; t < sig.tables.size(); ++t) {
        EXPECT_EQ(sig.tables[t].table, fresh->tables[t].table);
        EXPECT_EQ(sig.tables[t].alias, fresh->tables[t].alias);
      }
      ExpectSameExprs(sig.conjuncts, fresh->conjuncts, "conjunct");
      ExpectSameExprs(sig.group_by, fresh->group_by, "grouping");
      ASSERT_EQ(sig.outputs.size(), fresh->outputs.size());
      for (size_t o = 0; o < sig.outputs.size(); ++o) {
        EXPECT_EQ(sig.outputs[o].name, fresh->outputs[o].name);
        EXPECT_TRUE(sig.outputs[o].expr->Equals(*fresh->outputs[o].expr))
            << "output " << o;
      }
      EXPECT_EQ(sig.is_aggregate, fresh->is_aggregate);
      ++checked;
    }
  }
  EXPECT_GT(checked, 1000);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanSweepTest, ::testing::Values(1, 17));

}  // namespace
}  // namespace mvopt
