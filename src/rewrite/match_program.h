// Compiled per-view match programs: the fast tier of the two-tier
// matching core (ROADMAP item 4, DESIGN.md §16).
//
// At registration time, CompileMatchProgram lowers a view of common SPJG
// shape into a MatchProgram — a flat instruction stream over interned
// table/column/class ids plus side pools (precomputed view equivalence
// classes, output routing tables, per-class ranges, residual shapes,
// grouping/aggregate descriptors). ExecuteMatchProgram runs the stream
// with a tight switch loop against a per-probe MatchProbeContext (the
// query-side structures, built once per probe and shared by every
// compiled candidate) and a reusable MatchProgramScratch, so the check
// path performs no allocation.
//
// The compiled tier is an OPTIMIZATION, never a semantic fork: for every
// (query, view) pair it produces the byte-identical verdict — same
// substitute expressions in the same order, same RejectReason — as
// ViewMatcher::Match. A view with a program is decided by that program;
// shapes outside the compiled envelope (self-join views, backjoin mode,
// more than 64 view tables) compile to no program and are decided by the
// generic matcher (MatchTier::kGeneric). The generic matcher is retained
// as the oracle: MatchCrossCheck replays compiled verdicts against it and
// (in enforce mode) quarantines a view whose program disagrees.
//
// Why the envelope is what it is: when the view has no duplicate table
// ids, the mapping enumeration of §3.2 degenerates to the single
// identity-by-table-id mapping, and the query-side structures the
// generic matcher builds per candidate (equivalence classes, check
// constraints, range maps, residual shapes) depend only on the query —
// so they are hoisted into MatchProbeContext and built once per probe.
// The view-side halves (view equivalence classes including check
// equalities, output routing, view ranges, residual/grouping/aggregate
// shapes) depend only on the view and are precompiled into the program.
// Views with EXTRA tables (§3.2) are decided by the program as well: it
// runs the foreign-key elimination over a precompiled edge pool and, when
// elimination succeeds, extends the query classes in MatchProgramScratch
// with the extra tables' columns, CHECK constraints and the eliminated
// join equalities — the simulated addition of the extra tables the paper
// describes — and every later op reads classes, ranges and residual
// shapes through that extension. With the filter tree on, such
// candidates were 44% of the full tests on fig3_1k and views_10k, and all
// of them fell back to the generic matcher at 10–16 µs each; now 0%
// fall back, and on views_10k the match stage fell from ~95 to ~23 µs
// per invocation and throughput rose 1.6–1.9× (DESIGN.md §16).

#ifndef MVOPT_REWRITE_MATCH_PROGRAM_H_
#define MVOPT_REWRITE_MATCH_PROGRAM_H_

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "common/enum_coverage.h"
#include "expr/classify.h"
#include "query/spjg.h"
#include "query/view_def.h"
#include "rewrite/equiv.h"
#include "rewrite/fk_graph.h"
#include "rewrite/matcher.h"
#include "rewrite/range.h"

namespace mvopt {

/// Which matcher decided a candidate. kCompiled = the view's MatchProgram
/// ran; kGeneric = the generic ViewMatcher ran (the view has no program).
enum class MatchTier : uint8_t {
  kCompiled,
  kGeneric,
};

inline constexpr int kNumMatchTiers = 2;
static_assert(static_cast<int>(MatchTier::kGeneric) + 1 == kNumMatchTiers,
              "kNumMatchTiers must cover every MatchTier");

constexpr const char* MatchTierName(MatchTier tier) {
  switch (tier) {
    case MatchTier::kCompiled:
      return "compiled";
    case MatchTier::kGeneric:
      return "generic";
  }
  return "?";
}

static_assert(AllEnumeratorsNamed<MatchTier, MatchTierName>(kNumMatchTiers),
              "every MatchTier needs a MatchTierName entry");

/// Compiled/generic agreement checking (mirrors VerifyMode): kOff trusts
/// compiled verdicts, kLog replays every compiled verdict against the
/// generic oracle and counts disagreements, kEnforce additionally
/// quarantines the disagreeing view through the lifecycle circuit
/// breaker and substitutes the oracle's verdict (so enforce-mode results
/// are byte-identical to the generic tier by construction).
enum class MatchCrossCheck : uint8_t {
  kOff,
  kLog,
  kEnforce,
};

inline constexpr int kNumMatchCrossChecks = 3;
static_assert(static_cast<int>(MatchCrossCheck::kEnforce) + 1 ==
                  kNumMatchCrossChecks,
              "kNumMatchCrossChecks must cover every MatchCrossCheck");

constexpr const char* MatchCrossCheckName(MatchCrossCheck mode) {
  switch (mode) {
    case MatchCrossCheck::kOff:
      return "off";
    case MatchCrossCheck::kLog:
      return "log";
    case MatchCrossCheck::kEnforce:
      return "enforce";
  }
  return "?";
}

static_assert(AllEnumeratorsNamed<MatchCrossCheck, MatchCrossCheckName>(
                  kNumMatchCrossChecks),
              "every MatchCrossCheck needs a MatchCrossCheckName entry");

/// Opcodes of the match-program instruction stream, in the exact order
/// the generic matcher performs the corresponding tests — the stream is
/// the §3.1–§3.3 pipeline unrolled per view. Check ops reject, emit ops
/// append to the substitute under construction; both may also reject
/// (e.g. an unroutable compensating column).
enum class MatchOp : uint8_t {
  kCheckAggCompat,            ///< aggregated view vs. pure SPJ query
  kCheckTableSet,             ///< table-set screen + slot binding
  kCheckExtraTables,          ///< §3.2 elimination + query-class extension
  kBindRouting,               ///< slot permutation + query-class routing
  kCheckEquivClass,           ///< one view class ⊆ some query class (a=class)
  kEmitEqualityCompensation,  ///< chain split view classes per query class
  kCheckRangeSubsumes,        ///< one view range ⊇ query range (a=range idx)
  kEmitRangeCompensation,     ///< enforce differing bounds per query class
  kCheckResidualSubsumes,     ///< one view residual matched (a=residual idx)
  kEmitResidualCompensation,  ///< route unmatched query residuals
  kEmitOutputs,               ///< SPJ-query outputs (no-op for aggregates)
  kCheckGrouping,             ///< grouping containment (§3.3 requirement 3)
  kEmitGroupBy,               ///< compensating group-by expressions
  kEmitAggOutputs,            ///< aggregate outputs: rollup, AVG=SUM/COUNT
  kAccept,                    ///< build the MatchResult
};

inline constexpr int kNumMatchOps = 15;
static_assert(static_cast<int>(MatchOp::kAccept) + 1 == kNumMatchOps,
              "kNumMatchOps must cover every MatchOp");

constexpr const char* MatchOpName(MatchOp op) {
  switch (op) {
    case MatchOp::kCheckAggCompat:
      return "check-agg-compat";
    case MatchOp::kCheckTableSet:
      return "check-table-set";
    case MatchOp::kCheckExtraTables:
      return "check-extra-tables";
    case MatchOp::kBindRouting:
      return "bind-routing";
    case MatchOp::kCheckEquivClass:
      return "check-equiv-class";
    case MatchOp::kEmitEqualityCompensation:
      return "emit-equality-compensation";
    case MatchOp::kCheckRangeSubsumes:
      return "check-range-subsumes";
    case MatchOp::kEmitRangeCompensation:
      return "emit-range-compensation";
    case MatchOp::kCheckResidualSubsumes:
      return "check-residual-subsumes";
    case MatchOp::kEmitResidualCompensation:
      return "emit-residual-compensation";
    case MatchOp::kEmitOutputs:
      return "emit-outputs";
    case MatchOp::kCheckGrouping:
      return "check-grouping";
    case MatchOp::kEmitGroupBy:
      return "emit-group-by";
    case MatchOp::kEmitAggOutputs:
      return "emit-agg-outputs";
    case MatchOp::kAccept:
      return "accept";
  }
  return "?";
}

static_assert(AllEnumeratorsNamed<MatchOp, MatchOpName>(kNumMatchOps),
              "every MatchOp needs a MatchOpName entry");

/// One instruction: an opcode plus an immediate operand indexing the
/// program's side pools (class id for kCheckEquivClass, range index for
/// kCheckRangeSubsumes, residual index for kCheckResidualSubsumes;
/// unused otherwise).
struct MatchInsn {
  MatchOp op;
  int32_t a = 0;
};

/// A compiled view matcher. Immutable once built; shared (shared_ptr)
/// across catalog snapshot generations, so registration compiles once
/// and the probe path never compiles. All view-side column references
/// are in VIEW slot space (slot i = the view's i-th FROM entry);
/// kBindRouting translates them into the probe's query slot space
/// through the table-id permutation.
struct MatchProgram {
  ViewId view_id = kInvalidViewId;
  bool view_is_aggregate = false;
  /// MatchOptions snapshot baked in at compile time (the program must
  /// agree with the generic matcher it was compiled against).
  bool allow_min_max = true;

  /// The view's FROM list: catalog table id and column count per view
  /// slot. Table ids are all distinct (self-join views do not compile).
  std::vector<TableId> table_of_slot;
  std::vector<int32_t> num_columns_of_slot;

  /// View equivalence classes (§3.1.1) over view slot space, including
  /// check-constraint equalities: dense class id per column, flattened
  /// slot-major (class_of[col_base[slot] + column]).
  std::vector<int32_t> col_base;
  std::vector<int32_t> class_of;
  int32_t num_classes = 0;
  /// Members of each class, slot-major, as one CSR list: class c is
  /// class_members[class_begin[c], class_begin[c + 1]).
  std::vector<int32_t> class_begin;
  std::vector<ColumnRefId> class_members;
  /// First simple view output ordinal per class, or -1 (the precompiled
  /// §3.1.3 routing table through view equivalences).
  std::vector<int32_t> route_of_class;

  /// View ranges (§3.1.2), ascending class id, plus the inverse lookup
  /// (index into `ranges` per class, -1 when unconstrained).
  struct ClassRange {
    int32_t cls = -1;
    ValueRange range;
  };
  std::vector<ClassRange> ranges;
  std::vector<int32_t> range_index_of_class;

  /// View residual shapes (§3.1.2), conjunct order.
  std::vector<ExprShape> residual_shapes;

  /// View outputs: simple (plain column) outputs in output order, and
  /// complex outputs by shape for exact-expression matching (§3.1.4).
  struct SimpleOutput {
    ColumnRefId column;
    int32_t ordinal = -1;
  };
  std::vector<SimpleOutput> simple_outputs;
  struct ComplexOutput {
    ExprShape shape;
    int32_t ordinal = -1;
  };
  std::vector<ComplexOutput> complex_outputs;

  /// Aggregation-view descriptors (§3.3): the count(*) ordinal, group-by
  /// shapes + their output ordinals, and SUM/MIN/MAX outputs by argument
  /// shape.
  int32_t count_ordinal = -1;
  struct Grouping {
    ExprShape shape;
    int32_t ordinal = -1;
  };
  std::vector<Grouping> groupings;
  struct Agg {
    AggKind kind = AggKind::kSum;
    ExprShape arg_shape;
    int32_t ordinal = -1;
  };
  std::vector<Agg> aggs;

  /// §3.2 side pool (kCheckExtraTables): candidate cardinality-preserving
  /// join edges between VIEW slots, from the catalog's foreign keys and
  /// the view equivalence classes — exactly the admission tests of
  /// FkJoinGraph::Build, minus the query-side nullable-FK relaxation,
  /// which is deferred: an edge with nonempty `nullable_fk_cols` is
  /// active at probe time only when the query null-rejects every listed
  /// column. The oracle's graph over the unified tables is slot-for-slot
  /// isomorphic to this one, so the (order-independent) elimination
  /// fixpoint agrees: when the extra view tables cannot all be
  /// eliminated the program rejects (kExtraTableElimination); when they
  /// can, each extra slot was eliminated through its one active incoming
  /// edge, whose `columns` are the equalities the program adds to the
  /// query classes. Before these edges carried their columns, the
  /// eliminable case fell back to the generic matcher: 44% of the full
  /// tests on fig3_1k and views_10k with the filter tree on, now 0%; the
  /// match tier's time on fig3_1k's group signatures fell 7.6×
  /// (bench/match_program_bench).
  struct FkEdgeCandidate {
    int32_t from_slot = -1;
    int32_t to_slot = -1;
    /// FK columns (view slot space) that allow NULLs; empty means the
    /// edge is unconditional.
    std::vector<ColumnRefId> nullable_fk_cols;
    /// (FK column of from_slot, key column of to_slot) ordinals, in the
    /// foreign key's column order.
    std::vector<std::pair<ColumnOrdinal, ColumnOrdinal>> columns;
  };
  std::vector<FkEdgeCandidate> fk_edge_candidates;

  /// Each view slot's CHECK constraints, classified (§3.1.2) in view
  /// slot space: what the slot adds to the query side when it is an
  /// eliminated extra table (matcher.cc folds the check constraints of
  /// every unified table into the query classes, ranges and residuals).
  /// Empty when no view table has a check constraint or they are off.
  struct SlotChecks {
    std::vector<ColumnEqualityPred> equalities;
    std::vector<RangePred> ranges;
    std::vector<ExprShape> residual_shapes;
  };
  std::vector<SlotChecks> slot_checks;

  /// The instruction stream executed by ExecuteMatchProgram.
  std::vector<MatchInsn> insns;

  std::span<const ColumnRefId> ClassMembers(int32_t cls) const {
    const int32_t begin = class_begin[static_cast<size_t>(cls)];
    return {class_members.data() + begin,
            static_cast<size_t>(class_begin[static_cast<size_t>(cls) + 1] -
                                begin)};
  }
};

/// Query-side match state, built ONCE per probe and shared read-only by
/// every compiled candidate of that probe. Exactly the structures the
/// generic matcher rebuilds per candidate — valid to share because, for
/// compiled candidates (no duplicate tables), the generic matcher's
/// "unified" table list is the query's own FROM list followed by the
/// view's extra tables, whose contribution kCheckExtraTables adds per
/// candidate in MatchProgramScratch.
struct MatchProbeContext {
  const SpjgQuery* query = nullptr;
  bool is_aggregate = false;
  /// Whether check_preds holds the query tables' check constraints
  /// (MatchOptions::use_check_constraints); without them it is empty.
  bool checks_classified = false;
  /// Any duplicate table id in the query's FROM list? (Always infeasible
  /// against a compiled — duplicate-free — view.)
  bool has_dup_tables = false;
  /// Query slots sorted by table id for the kCheckTableSet binary search.
  std::vector<std::pair<TableId, int32_t>> slot_by_table;

  ClassifiedPredicates query_preds;
  ClassifiedPredicates check_preds;
  /// Query classes over the query's slots, flattened slot-major like the
  /// program's (col_base()/class_of()). Built by the analysis, so shared
  /// reads never rebuild them.
  EquivalenceClasses query_ec;
  RangeMap query_ranges;          ///< plain query ranges (compensation)
  RangeMap query_ranges_checked;  ///< check-strengthened (subsumption)
  std::vector<ExprShape> query_residual_shapes;
  std::vector<ExprShape> check_residual_shapes;

  /// A query expression with its routing classification precomputed, so
  /// the per-candidate §3.1.4 compute_expr needs no shape recomputation.
  struct CachedExpr {
    enum class Kind : uint8_t { kLiteral, kColumn, kComplex };
    Kind kind = Kind::kLiteral;
    ExprPtr expr;         ///< the original query expression (shared)
    ColumnRefId column;   ///< kColumn only
    ExprShape shape;      ///< kComplex only
  };
  /// One query output: either a cached plain expression or an aggregate
  /// with its argument cached (arg unset for COUNT(*)).
  struct OutputInfo {
    bool is_aggregate = false;
    AggKind agg_kind = AggKind::kCountStar;
    CachedExpr value;  ///< the output itself, or the aggregate argument
    /// Shape of the aggregate argument (for find_view_agg matching).
    ExprShape agg_arg_shape;
  };
  std::vector<OutputInfo> outputs;
  /// Query group-by expressions: shape (for containment) + cached value
  /// (for compensating group-by emission).
  std::vector<CachedExpr> group_by;
  std::vector<ExprShape> group_by_shapes;

  /// Columns (query slot space) with null-rejecting query predicates —
  /// the §3.2 nullable-FK relaxation set, built exactly as the generic
  /// matcher builds it per candidate. Empty when the relaxation is off.
  std::vector<ColumnRefId> null_rejected;

  int32_t QueryClassOf(ColumnRefId col) const {
    return query_ec.ClassOf(col);
  }
};

/// Reusable per-thread scratch for ExecuteMatchProgram: sized on first
/// use, reset by generation stamps — the reject path allocates nothing
/// after warm-up.
struct MatchProgramScratch {
  /// Query slot of each view slot and back (the identity-by-table-id
  /// mapping bound by kBindRouting).
  std::vector<int32_t> qslot_of_vslot;
  std::vector<int32_t> vslot_of_qslot;
  /// First simple view output ordinal per QUERY class (§3.1.3 routing
  /// through query equivalences), stamp-reset.
  std::vector<int32_t> route_of_qclass;
  std::vector<uint32_t> route_stamp;
  uint32_t stamp = 0;
  /// Dedup of view classes (range compensation), stamp-reset with its
  /// own counter (bumped per query class, not per candidate).
  std::vector<uint32_t> vclass_stamp;
  uint32_t vclass_counter = 0;
  /// Discovery-ordered distinct view classes within one query class.
  std::vector<int32_t> dist_vclasses;
  std::vector<ExprPtr> routed;
  /// Query residuals discharged by view residuals (§3.1.2).
  std::vector<char> query_residual_matched;
  /// Used-flags of the grouping-containment test (§3.3).
  std::vector<char> grouping_used;
  /// kCheckExtraTables workspace: the probe-active FK edges (dedup'd per
  /// slot pair, fk payload unused), the dedup bitmasks, and the pool
  /// index of the active edge into each view slot.
  std::vector<FkJoinEdge> fk_edges;
  std::vector<uint64_t> fk_active_to;
  std::vector<int32_t> fk_in_edge;
  /// The §3.2 query-class extension of a candidate with eliminated extra
  /// slots. Nodes are the query classes, then every extra-slot column
  /// (extra slot k's column c is node xnode_base[k] + c); xclass maps
  /// each node to its extended class, labelled by the class's smallest
  /// node, so classes holding query columns keep the smallest of their
  /// query class ids and order as the generic matcher's dense ids do.
  std::vector<int32_t> xnode_base;
  std::vector<int32_t> xclass;
  /// Query-slot members per extended class label, slot-major (CSR), kept
  /// only when the extension merged two query classes.
  std::vector<int32_t> member_begin;
  std::vector<ColumnRefId> members;
  /// Extended classes with a query range, ascending (merged case only).
  std::vector<int32_t> ranged_classes;
};

/// The one analysis of a probe's query: classifies its conjuncts (and,
/// with use_check_constraints, its tables' check constraints) once,
/// builds its equivalence classes and the shapes of its residuals,
/// outputs and grouping expressions. The §4.2 search keys derive from it
/// (DescribeQuery); CompleteMatchProbeContext adds what only compiled
/// candidates read. `query` must outlive the context.
MatchProbeContext AnalyzeProbeQuery(const Catalog& catalog,
                                    const SpjgQuery& query,
                                    const MatchOptions& options);

/// Completes an analyzed context for ExecuteMatchProgram: slot lookup,
/// range maps, the nullable-FK relaxation set and the cached grouping
/// expressions. Run at most once per context.
void CompleteMatchProbeContext(const MatchOptions& options,
                               MatchProbeContext* ctx);

/// Both steps: the query-side context for one probe. `options` must be
/// the same MatchOptions the candidate programs were compiled with.
MatchProbeContext BuildMatchProbeContext(const Catalog& catalog,
                                         const SpjgQuery& query,
                                         const MatchOptions& options);

/// Compiles `view` into a match program, or returns nullptr when the
/// view is outside the compiled envelope (self-join FROM list, backjoin
/// mode, more than 64 tables, or a zero mapping budget) — such views
/// match through the generic tier. Deterministic and side-effect free;
/// called under the catalog writer lock at registration/recovery, never
/// on a probe.
std::shared_ptr<const MatchProgram> CompileMatchProgram(
    const Catalog& catalog, const ViewDefinition& view,
    const MatchOptions& options);

/// Runs `program` against one probe's context. The MatchResult is
/// byte-identical to ViewMatcher::Match on the same pair. Allocates only
/// for the substitute under construction (and to size `scratch` on first
/// use). Throws std::logic_error on a corrupted program that never
/// reaches kAccept.
MatchResult ExecuteMatchProgram(const MatchProgram& program,
                                const MatchProbeContext& ctx,
                                MatchProgramScratch& scratch);

}  // namespace mvopt

#endif  // MVOPT_REWRITE_MATCH_PROGRAM_H_
