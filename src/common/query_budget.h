// Per-query resource governance: a wall-clock deadline plus caps on the
// work the matching pipeline and the optimizer's memo expansion may
// perform. The budget is checked cooperatively — the filter tree, the
// matching service and the optimizer call the Tick/Consume methods at
// loop boundaries — and exhaustion is *sticky*: once any limit trips,
// every later check reports exhausted and records the first reason, so
// all layers wind down together and the optimizer can return the best
// plan found so far instead of throwing or hanging.
//
// A budget is per-query state and is NOT thread-safe; it lives in the
// query's QueryContext (common/query_context.h), one per concurrent
// optimization. A context without a budget keeps every code path
// byte-identical to the ungoverned behavior.

#ifndef MVOPT_COMMON_QUERY_BUDGET_H_
#define MVOPT_COMMON_QUERY_BUDGET_H_

#include <chrono>
#include <cstdint>
#include <limits>

#include "common/enum_coverage.h"

namespace mvopt {

/// Why an optimization was degraded (first limit that tripped).
/// kStaleViewsOnly and kPartialCatalog are *advisory*: they never
/// exhaust the budget. kStaleViewsOnly reports that every matching view
/// was skipped for staleness; kPartialCatalog reports that a catalog
/// shard the query routed to was quarantined, so the answer — while
/// correct — may be missing substitutes that shard would have offered.
enum class DegradationReason {
  kNone = 0,
  kDeadlineExceeded,     ///< wall-clock deadline passed
  kCandidateCapReached,  ///< filter-tree candidate cap hit
  kMemoGroupCapReached,  ///< memo group cap hit
  kMemoExprCapReached,   ///< memo expression cap hit
  kStaleViewsOnly,       ///< only stale view candidates existed
  kPartialCatalog,       ///< a routed catalog shard was unavailable
};

inline constexpr int kNumDegradationReasons = 7;
static_assert(static_cast<int>(DegradationReason::kPartialCatalog) + 1 ==
                  kNumDegradationReasons,
              "kNumDegradationReasons must cover every DegradationReason");

/// Exhaustive (switch-based, no default): a new DegradationReason
/// without a name is a -Wswitch error, and the static_assert below
/// proves every value maps to a real name even where that warning is
/// demoted.
constexpr const char* DegradationReasonName(DegradationReason reason) {
  switch (reason) {
    case DegradationReason::kNone:
      return "none";
    case DegradationReason::kDeadlineExceeded:
      return "deadline-exceeded";
    case DegradationReason::kCandidateCapReached:
      return "candidate-cap";
    case DegradationReason::kMemoGroupCapReached:
      return "memo-group-cap";
    case DegradationReason::kMemoExprCapReached:
      return "memo-expr-cap";
    case DegradationReason::kStaleViewsOnly:
      return "stale-views-only";
    case DegradationReason::kPartialCatalog:
      return "partial-catalog";
  }
  return "?";
}

static_assert(AllEnumeratorsNamed<DegradationReason, DegradationReasonName>(
                  kNumDegradationReasons),
              "every DegradationReason needs a DegradationReasonName entry");

class QueryBudget {
 public:
  using Clock = std::chrono::steady_clock;
  static constexpr int64_t kUnlimited = std::numeric_limits<int64_t>::max();
  /// Clock reads are amortized: one per this many TickDeadline calls
  /// (the first call always reads, so an already-expired deadline trips
  /// immediately).
  static constexpr int64_t kDeadlineCheckStride = 16;

  QueryBudget() = default;  // unlimited in every dimension

  void set_deadline(Clock::time_point deadline) {
    deadline_ = deadline;
    has_deadline_ = true;
    // Re-arm the amortization stride: the first TickDeadline after a
    // deadline is (re)set must read the clock, or an already-expired
    // deadline installed mid-stride would coast for up to
    // kDeadlineCheckStride-1 further ticks before tripping.
    ticks_ = 0;
  }
  void set_deadline_after(Clock::duration d) { set_deadline(Clock::now() + d); }
  void set_candidate_cap(int64_t cap) { candidate_cap_ = cap; }
  void set_memo_group_cap(int64_t cap) { memo_group_cap_ = cap; }
  void set_memo_expr_cap(int64_t cap) { memo_expr_cap_ = cap; }

  /// Staleness tolerance: a view whose contents lag its base tables by
  /// at most this many update epochs may still be substituted (its
  /// substitutes are down-ranked behind fresh ones). 0 = fresh only.
  void set_max_staleness(uint64_t epochs) { max_staleness_ = epochs; }
  uint64_t max_staleness() const { return max_staleness_; }

  bool has_deadline() const { return has_deadline_; }
  /// The absolute deadline (meaningful only when has_deadline()).
  Clock::time_point deadline() const { return deadline_; }
  bool exhausted() const { return reason_ != DegradationReason::kNone; }
  DegradationReason reason() const {
    return reason_ != DegradationReason::kNone ? reason_ : advisory_;
  }

  /// Records an advisory degradation (reported by reason() when no hard
  /// limit tripped) without exhausting the budget. First advisory wins,
  /// with one priority exception: kPartialCatalog replaces any other
  /// advisory, so "a routed shard was unavailable" is reported iff it
  /// happened — even when a stale-views advisory landed first (the
  /// partial-availability contract in shard/sharded_catalog_service.h
  /// depends on this).
  void NoteDegradation(DegradationReason reason) {
    if (advisory_ == DegradationReason::kNone ||
        (reason == DegradationReason::kPartialCatalog &&
         advisory_ != DegradationReason::kPartialCatalog)) {
      advisory_ = reason;
    }
  }

  /// Clears the sticky degradation state and the per-query usage
  /// counters so one budget can govern a sequence of Optimize() calls
  /// (caps are per query; the wall-clock deadline, being absolute, is
  /// kept). Called at optimization entry through
  /// QueryContext::ResetForQuery. Resetting ticks_ also re-arms the
  /// deadline-check stride, so the first tick of the next query always
  /// reads the clock — an already-expired deadline trips immediately
  /// instead of up to kDeadlineCheckStride-1 ticks later (the
  /// deadline-overshoot regression in query_budget_test).
  void ResetForQuery() {
    reason_ = DegradationReason::kNone;
    advisory_ = DegradationReason::kNone;
    ticks_ = 0;
    candidates_used_ = 0;
    memo_groups_used_ = 0;
    memo_exprs_used_ = 0;
  }

  /// Cooperative deadline check; call at loop boundaries. Returns
  /// exhausted() so call sites can bail with one branch.
  bool TickDeadline() {
    if (exhausted()) return true;
    if (!has_deadline_) return false;
    if (ticks_++ % kDeadlineCheckStride == 0 && Clock::now() >= deadline_) {
      reason_ = DegradationReason::kDeadlineExceeded;
    }
    return exhausted();
  }

  /// Charges one filter-tree candidate. Returns exhausted(); when true
  /// the candidate must NOT be emitted.
  bool ConsumeCandidate() {
    if (exhausted()) return true;
    if (++candidates_used_ > candidate_cap_) {
      reason_ = DegradationReason::kCandidateCapReached;
    }
    return exhausted();
  }

  /// Charges one memo group / expression. The optimizer still creates
  /// the structure it needs for a complete plan after exhaustion; these
  /// only stop *optional* alternatives.
  bool ConsumeMemoGroup() {
    if (exhausted()) return true;
    if (++memo_groups_used_ > memo_group_cap_) {
      reason_ = DegradationReason::kMemoGroupCapReached;
    }
    return exhausted();
  }
  bool ConsumeMemoExpr() {
    if (exhausted()) return true;
    if (++memo_exprs_used_ > memo_expr_cap_) {
      reason_ = DegradationReason::kMemoExprCapReached;
    }
    return exhausted();
  }

  int64_t candidates_used() const { return candidates_used_; }
  int64_t memo_groups_used() const { return memo_groups_used_; }
  int64_t memo_exprs_used() const { return memo_exprs_used_; }

 private:
  Clock::time_point deadline_{};
  bool has_deadline_ = false;
  int64_t candidate_cap_ = kUnlimited;
  int64_t memo_group_cap_ = kUnlimited;
  int64_t memo_expr_cap_ = kUnlimited;
  uint64_t max_staleness_ = 0;

  int64_t ticks_ = 0;
  int64_t candidates_used_ = 0;
  int64_t memo_groups_used_ = 0;
  int64_t memo_exprs_used_ = 0;
  DegradationReason reason_ = DegradationReason::kNone;
  DegradationReason advisory_ = DegradationReason::kNone;
};

}  // namespace mvopt

#endif  // MVOPT_COMMON_QUERY_BUDGET_H_
