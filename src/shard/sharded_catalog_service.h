// ShardedCatalogService: the catalog and matching state split into
// independent failure domains (DESIGN.md §14). Each shard owns its own
// MatchingService (filter-tree segment, lifecycle slice) and its own
// CatalogStore (WAL + snapshot at <dir>/shard_<i>), routed by the
// ShardRouter's table-signature rule, so
//
//   - crash recovery runs the shards in parallel (RecoverAll over a
//     ThreadPool) and a shard that fails CRC / replay / invariant audit
//     is QUARANTINED, not fatal: probes proceed over the healthy shards
//     and carry the sticky DegradationReason::kPartialCatalog advisory,
//   - a background scrubber (ScrubTick, exponential backoff) rebuilds
//     quarantined shards from their stores and readmits them without a
//     restart, and
//   - the blast radius of one corrupt WAL or snapshot is one shard's
//     views, never the whole catalog.
//
// Id space: a shard hands out dense local ids; the service exposes the
// stable composite global id  global = local * num_shards + shard.
// Decoding is arithmetic (shard = global % N, local = global / N), so
// remapping needs no table, is race-free, and survives any interleaving
// of per-shard registrations. Plan text is unaffected: the optimizer
// renders view *names* (PhysPlan::view_name), which is what makes
// sharded and unsharded plans byte-comparable.
//
// Merge determinism: FindSubstitutes visits the routed shards in
// ascending shard order, reusing the caller's QueryContext serially (the
// budget accumulates across shards exactly as it would across candidates
// within one service), and concatenates fresh (staleness_lag == 0)
// substitutes before tolerated-stale ones globally — the same order
// contract a single MatchingService keeps.
//
// Lock protocol (DESIGN.md §15): probes are lock-free at this layer
// too. Each shard publishes its current MatchingService through an
// atomic `live` pointer; probes (FindSubstitutes / FindUnionSubstitute /
// ResolveView / stats) load it with acquire and call straight through —
// the pointed-to service synchronizes probes internally with its own
// snapshot pin, so the probe path acquires zero shared locks end to
// end. Writers (AddView delegation, recovery/scrub swap, checkpoint,
// revalidation) serialize on the shard's writer mutex, which guards the
// owning `service` unique_ptr; a swap publishes the replacement into
// `live` before flipping health. Scrub-retired services are kept alive
// on retired_ for the service's lifetime, so a probe that loaded `live`
// just before a swap (or a ResolveView reference handed out long ago)
// never dangles. admin_mu_ guards the scrub / quarantine bookkeeping
// and is never held across a shard-service call.
//
// View names are unique catalog-wide (plans render views by name): a
// name index under names_mu_ maps every registered name to its shard.
// AddView claims the name before delegating and settles the claim under
// the shard's writer mutex. A recovery or scrub swap (Readmit) replaces
// the shard's names with the rebuilt service's; a rebuilt view whose
// name another shard holds (a store written before names were
// catalog-wide, or a name registered elsewhere while this shard was
// quarantined) is disabled, not the shard: the shard is readmitted and
// serves its other views. RecoverAll readmits in shard order after
// every shard is rebuilt, so at startup the lower shard keeps a name.
//
// Failpoint sites (common/failpoint.h; crash-killed at every one by
// tools/ci/run_crash_recovery.sh):
//   catalog_shard.recover          per-shard recovery task entry
//   catalog_shard.add_route        after routing, before delegation
//   catalog_shard.checkpoint       per-shard checkpoint entry
//   catalog_shard.scrub_swap       shard rebuilt, before the swap
//   catalog_shard.scrub_checkpoint readmitted, before the repair snapshot

#ifndef MVOPT_SHARD_SHARDED_CATALOG_SERVICE_H_
#define MVOPT_SHARD_SHARDED_CATALOG_SERVICE_H_

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/enum_coverage.h"
#include "common/epoch.h"
#include "common/mutex.h"
#include "common/query_context.h"
#include "common/thread_annotations.h"
#include "index/matching_service.h"
#include "observe/observe.h"
#include "rewrite/catalog_store.h"
#include "rewrite/substitute_source.h"
#include "shard/shard_router.h"

namespace mvopt {

class ThreadPool;

enum class ShardHealth {
  kHealthy = 0,     ///< serving probes and registrations
  kQuarantined,     ///< sidelined; probes skip it, scrubber retries it
};

inline constexpr int kNumShardHealths = 2;
static_assert(static_cast<int>(ShardHealth::kQuarantined) + 1 ==
                  kNumShardHealths,
              "kNumShardHealths must cover every ShardHealth");

constexpr const char* ShardHealthName(ShardHealth health) {
  switch (health) {
    case ShardHealth::kHealthy:
      return "healthy";
    case ShardHealth::kQuarantined:
      return "quarantined";
  }
  return "?";
}

static_assert(AllEnumeratorsNamed<ShardHealth, ShardHealthName>(
                  kNumShardHealths),
              "every ShardHealth needs a ShardHealthName entry");

/// Why a shard was taken out of service. Machine-readable so recovery
/// tooling asserts on the cause, never on free-form detail strings.
enum class ShardQuarantineCause {
  kNone = 0,         ///< healthy
  kSnapshotCorrupt,  ///< snapshot failed its structural/CRC checks
  kWalCorrupt,       ///< WAL truncation treated as corruption (opt-in)
  kReplayFailed,     ///< durable entries could not be rebuilt
  kAuditFailed,      ///< post-replay invariant audit found violations
  kIoError,          ///< store I/O failure during recovery
  kFailpoint,        ///< injected fault (chaos / crash tests)
  kForced,           ///< administrative ForceQuarantine
};

inline constexpr int kNumShardQuarantineCauses = 8;
static_assert(static_cast<int>(ShardQuarantineCause::kForced) + 1 ==
                  kNumShardQuarantineCauses,
              "kNumShardQuarantineCauses must cover every cause");

constexpr const char* ShardQuarantineCauseName(ShardQuarantineCause cause) {
  switch (cause) {
    case ShardQuarantineCause::kNone:
      return "none";
    case ShardQuarantineCause::kSnapshotCorrupt:
      return "snapshot-corrupt";
    case ShardQuarantineCause::kWalCorrupt:
      return "wal-corrupt";
    case ShardQuarantineCause::kReplayFailed:
      return "replay-failed";
    case ShardQuarantineCause::kAuditFailed:
      return "audit-failed";
    case ShardQuarantineCause::kIoError:
      return "io-error";
    case ShardQuarantineCause::kFailpoint:
      return "failpoint";
    case ShardQuarantineCause::kForced:
      return "forced";
  }
  return "?";
}

static_assert(
    AllEnumeratorsNamed<ShardQuarantineCause, ShardQuarantineCauseName>(
        kNumShardQuarantineCauses),
    "every ShardQuarantineCause needs a ShardQuarantineCauseName entry");

/// Machine-readable outcome of one RecoverAll pass: every shard's
/// verdict plus its store-level RecoveryReport.
struct ShardRecoveryReport {
  struct ShardOutcome {
    int shard = 0;
    ShardHealth health = ShardHealth::kHealthy;
    ShardQuarantineCause cause = ShardQuarantineCause::kNone;
    std::string detail;          ///< human detail for a quarantine
    double recovery_seconds = 0;  ///< wall clock of this shard's task
    /// Views disabled at readmission because a lower shard holds their
    /// name (stores written before names were catalog-wide).
    std::vector<std::string> duplicate_names;
    RecoveryReport report;        ///< per-shard store recovery outcome
  };

  std::vector<ShardOutcome> shards;

  bool all_healthy() const {
    for (const auto& s : shards) {
      if (s.health != ShardHealth::kHealthy) return false;
    }
    return true;
  }
  int num_quarantined() const {
    int n = 0;
    for (const auto& s : shards) {
      if (s.health == ShardHealth::kQuarantined) ++n;
    }
    return n;
  }
  std::string ToJson() const;
};

/// Structural validation of ShardRecoveryReport::ToJson (same pattern as
/// ValidateRecoveryReportJson): well-formed JSON, every mandatory key
/// present, and every health / cause value a known enumerator name.
bool ValidateShardRecoveryReportJson(const std::string& json,
                                     std::string* error);

struct ShardedCatalogOptions {
  /// Failure domains (clamped to >= 1; 1 degenerates to an unsharded
  /// catalog behind the same interface).
  int num_shards = 4;
  /// Durability root: shard i persists at <dir>/shard_<i>. Empty = no
  /// durability (in-memory shards; RecoverAll is then a no-op rebuild).
  std::string dir;
  /// Applied to every shard's MatchingService (verify mode, quarantine
  /// thresholds, observe...).
  MatchingService::Options service;
  /// Run the InvariantAuditor over each shard's filter tree after
  /// replay; violations quarantine the shard (kAuditFailed).
  bool audit_after_recovery = true;
  /// Treat a truncated torn WAL tail as shard-level corruption
  /// (kWalCorrupt). Off by default: a torn tail is the *expected*
  /// artifact of a crash mid-append and recovery repairs it; flip this
  /// on when any truncation is suspicious (e.g. bit-rot scans).
  bool quarantine_on_wal_truncation = false;
  /// Scrub circuit breaker: a failed repair attempt doubles the wait
  /// (in ScrubTick calls) before the next one, within this window.
  int scrub_backoff_initial_ticks = 1;
  int scrub_backoff_max_ticks = 64;
  /// Shard-level observability (quarantine gauge, scrub counters,
  /// per-shard recovery-latency histograms). Independent of
  /// service.observe, which instruments the per-shard pipelines.
  ObserveOptions observe;
};

class ShardedCatalogService : public SubstituteSource {
 public:
  ShardedCatalogService(const Catalog* catalog, ShardedCatalogOptions options);
  ~ShardedCatalogService() override;

  ShardedCatalogService(const ShardedCatalogService&) = delete;
  ShardedCatalogService& operator=(const ShardedCatalogService&) = delete;

  // --- registration -------------------------------------------------------

  /// Validates, routes and registers a view on its owning shard; returns
  /// the composite global id, or kInvalidViewId with *error set. A name
  /// is unique across all shards: one registered on any shard is
  /// rejected, with the unsharded service's error. Fails
  /// (rather than silently rehoming) when the owning shard is
  /// quarantined: a view registered elsewhere would violate the routing
  /// invariant and become unreachable after readmission. Also fails —
  /// before touching the shard — when the composite id the registration
  /// would produce does not fit the ViewId type (ComposeGlobalId), so
  /// the id codec can never silently wrap near the id-type max.
  ViewId AddView(const std::string& name, SpjgQuery definition,
                 std::string* error = nullptr);

  // --- SubstituteSource ---------------------------------------------------

  /// Probes the routed shards in ascending shard order with the caller's
  /// context (serially — the budget accrues across shards), remaps local
  /// ids to global, and keeps fresh substitutes ahead of tolerated-stale
  /// ones globally. A routed-but-quarantined shard records the sticky
  /// kPartialCatalog advisory and is skipped.
  std::vector<Substitute> FindSubstitutes(const SpjgQuery& query,
                                          QueryContext& ctx) override;

  /// First union substitute found over the routed healthy shards, legs
  /// remapped to global ids. Legs never span shards (each shard only
  /// sees its own partitions) — a known sharding trade-off, documented
  /// in DESIGN.md §14. Quarantined routed shards record kPartialCatalog.
  std::optional<UnionSubstitute> FindUnionSubstitute(
      const SpjgQuery& query, QueryContext& ctx) override;

  /// Resolves a composite global id. References stay valid across scrub
  /// swaps (replaced shard services are retired, not destroyed, for the
  /// lifetime of this object).
  const ViewDefinition& ResolveView(ViewId id) const override;

  // --- recovery / durability ----------------------------------------------

  /// Parallel startup recovery: one task per shard on `pool` (null =
  /// serial), each replaying its own snapshot + WAL and auditing the
  /// rebuilt filter tree. A shard that fails is quarantined with a
  /// machine-readable cause; the rest come up and serve. The rebuilt
  /// shards are readmitted in shard order once every task is done: a
  /// view whose name a lower shard also holds is disabled (listed in
  /// its shard's duplicate_names), whatever order the tasks ran in.
  /// Never throws.
  ShardRecoveryReport RecoverAll(ThreadPool* pool = nullptr);

  /// Checkpoints every healthy shard, isolating per-shard failures (the
  /// per-shard snapshot protocol is atomic, so a shard whose checkpoint
  /// faults keeps its WAL and stays healthy). Returns shards
  /// checkpointed.
  int CheckpointAll();

  /// One scrubber pass: for each quarantined shard past its backoff,
  /// rebuild a fresh service from the store, re-audit, and swap it in
  /// under the shard's writer lock. Returns the number readmitted; a
  /// failed attempt doubles the shard's backoff (circuit breaker).
  int ScrubTick();

  /// Administrative quarantine (operators, chaos tests, the crash
  /// driver's scrub-site arming). Resets the scrub backoff so the next
  /// ScrubTick retries immediately.
  void ForceQuarantine(int shard, ShardQuarantineCause cause,
                       const std::string& detail);

  /// Next circuit-breaker window after a failed repair attempt: doubles
  /// the current window within [initial_ticks, max_ticks]. Clamps
  /// *before* doubling, so the progression saturates at max_ticks
  /// instead of overflowing int — under the old multiply-then-clamp a
  /// long run of consecutive failures with a large configured max would
  /// shift the window past INT_MAX into undefined behavior (in practice
  /// a negative window, which disables the backoff entirely). Pure;
  /// exposed for the regression test in tests/shard_test.cc.
  static int NextScrubBackoffWindow(int current, int initial_ticks,
                                    int max_ticks);

  // --- routing / health ---------------------------------------------------

  const ShardRouter& router() const { return router_; }
  int num_shards() const { return static_cast<int>(shards_.size()); }
  std::vector<int> RouteShards(const SpjgQuery& query) const {
    return router_.RouteQuery(query);
  }
  /// True when any shard this query routes to is quarantined — the
  /// admission-layer hook behind PartialCatalogPolicy::kShed.
  bool AnyRoutedUnhealthy(const SpjgQuery& query) const;

  ShardHealth shard_health(int shard) const {
    return shards_[static_cast<size_t>(shard)]->health.load(
        std::memory_order_acquire);
  }
  ShardQuarantineCause shard_quarantine_cause(int shard) const;

  // --- lifecycle forwarding -----------------------------------------------

  /// Wires base-table epochs into every shard (and every future
  /// scrub-rebuilt shard service). The clock must outlive the service.
  void set_epoch_clock(const TableEpochClock* clock);

  /// One revalidation tick across all healthy shards; returns the total
  /// number of views readmitted. A view disabled because another shard
  /// holds its name is readmitted only once the name is free again.
  int RevalidationTickAll(
      const std::function<bool(const ViewDefinition&)>& validate);

  /// Aggregated probe / verification statistics across shards.
  MatchingStats stats() const;
  VerifyStats verify_stats() const;

  // --- id codec -----------------------------------------------------------

  /// Checked composition: nullopt when local * num_shards + shard would
  /// exceed the ViewId range. AddView rejects a registration whose id
  /// would not compose, so GlobalId below never wraps in practice.
  std::optional<ViewId> ComposeGlobalId(int shard, ViewId local) const;

  ViewId GlobalId(int shard, ViewId local) const {
    return local * static_cast<ViewId>(shards_.size()) +
           static_cast<ViewId>(shard);
  }
  int ShardOfId(ViewId global) const {
    return static_cast<int>(global % static_cast<ViewId>(shards_.size()));
  }
  ViewId LocalId(ViewId global) const {
    return global / static_cast<ViewId>(shards_.size());
  }

  // --- test accessors (single-threaded use only) --------------------------

  /// The shard's live service / store. Reads the atomic live pointer, so
  /// it is safe from any thread; the reference stays valid across scrub
  /// swaps (retired services are kept alive for this object's lifetime),
  /// though after a swap it names the replaced generation.
  MatchingService& shard_service(int shard) {
    return *shards_[static_cast<size_t>(shard)]->live.load(
        std::memory_order_acquire);
  }
  CatalogStore* shard_store(int shard) {
    return shards_[static_cast<size_t>(shard)]->store.get();
  }

 private:
  struct Shard {
    /// Serializes writers: AddView delegation, the recovery/scrub swap,
    /// checkpoint and revalidation. Probes never take it — they go
    /// through the atomic `live` pointer below.
    mutable Mutex writer_mu;
    /// The owning pointer (current generation). Written only under
    /// writer_mu; probes must not touch it.
    std::unique_ptr<MatchingService> service MVOPT_GUARDED_BY(writer_mu);
    /// Lock-free probe access to the current service. Always equals
    /// service.get() after construction; a swap stores the replacement
    /// here (release) before flipping health. Loading a stale value is
    /// benign: replaced services are retired, never destroyed.
    std::atomic<MatchingService*> live{nullptr};
    /// Stable address, internally synchronized; null when dir is empty.
    std::unique_ptr<CatalogStore> store;
    std::atomic<ShardHealth> health{ShardHealth::kHealthy};
  };

  /// Scrub / quarantine bookkeeping (guarded by admin_mu_, separate from
  /// the per-shard service locks; admin_mu_ is never held across a
  /// shard-service call).
  struct ShardAdmin {
    ShardQuarantineCause cause = ShardQuarantineCause::kNone;
    std::string detail;
    int backoff_remaining = 0;  ///< ScrubTicks to skip before retrying
    int backoff_window = 0;     ///< current circuit-breaker window
  };

  /// Recovery of one shard: replay + audit into a fresh service for
  /// RecoverAll to readmit, or quarantine and null. Never throws (tasks
  /// run on a pool).
  std::unique_ptr<MatchingService> RecoverShard(
      int shard, ShardRecoveryReport::ShardOutcome* outcome);
  /// Applies a quarantine verdict to shard bookkeeping + metrics.
  void Quarantine(int shard, ShardQuarantineCause cause,
                  const std::string& detail) MVOPT_EXCLUDES(admin_mu_);
  /// Publishes a rebuilt service and marks the shard healthy; returns
  /// the names of the views it disabled as duplicates (ClaimNamesLocked).
  std::vector<std::string> Readmit(int shard,
                                   std::unique_ptr<MatchingService> fresh)
      MVOPT_EXCLUDES(admin_mu_, names_mu_);
  /// Makes the names of `fresh` (rebuilt, not yet published) the shard's
  /// settled names (see names_). A view whose name another shard holds
  /// is disabled in `fresh` instead; returns those names.
  std::vector<std::string> ClaimNamesLocked(int shard,
                                            MatchingService& fresh)
      MVOPT_REQUIRES(names_mu_);
  /// Settles `name`, which the shard's service holds, as the shard's:
  /// true when it was free or already the shard's, false when another
  /// shard holds it.
  bool ClaimName(int shard, const std::string& name)
      MVOPT_EXCLUDES(names_mu_);
  /// Audits a rebuilt (not yet published) shard service; empty string =
  /// pass.
  std::string AuditShard(MatchingService& service) const;
  void RegisterMetrics();
  void UpdateQuarantineGauge();

  /// A view name's owner in the catalog-wide name index. Pending from
  /// AddView's claim until the registration settles; a failed
  /// registration drops its pending claim.
  struct NameClaim {
    int shard = 0;
    bool committed = false;
  };

  const Catalog* catalog_;
  ShardedCatalogOptions options_;
  ShardRouter router_;
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Guards the catalog-wide name index. Taken after a shard's
  /// writer_mu, never before one, and never held across a shard-service
  /// call.
  mutable Mutex names_mu_;
  /// Every registered view name, and every name a registration in flight
  /// has claimed, with the shard whose view serves under it: AddView
  /// rejects a name registered on any shard, and Readmit restores a
  /// rebuilt shard's names.
  std::unordered_map<std::string, NameClaim> names_
      MVOPT_GUARDED_BY(names_mu_);

  mutable Mutex admin_mu_;
  std::vector<ShardAdmin> admin_ MVOPT_GUARDED_BY(admin_mu_);
  /// Scrub-replaced services, kept alive so ResolveView references
  /// handed out before a swap never dangle.
  std::vector<std::unique_ptr<MatchingService>> retired_
      MVOPT_GUARDED_BY(admin_mu_);
  const TableEpochClock* epochs_ MVOPT_GUARDED_BY(admin_mu_) = nullptr;

  /// Cached registry instruments; all null when counters are off.
  struct ShardMetrics {
    Gauge* quarantined = nullptr;
    Counter* scrub_attempts = nullptr;
    Counter* scrub_repairs = nullptr;
    Counter* readmissions = nullptr;
    Counter* partial_probes = nullptr;
    std::vector<Histogram*> recovery_latency;  ///< one per shard
  };
  ShardMetrics metrics_;
};

}  // namespace mvopt

#endif  // MVOPT_SHARD_SHARDED_CATALOG_SERVICE_H_
