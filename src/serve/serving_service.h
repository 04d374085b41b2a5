// ServingService: the overload-safe front end in front of the
// Optimizer/MatchingService pipeline. Everything below this layer
// assumes one well-behaved caller per query; this layer is where an
// open-world stream of requests meets bounded resources, so overload is
// a first-class outcome rather than an accident:
//
//   - a bounded admission queue with queue-deadline propagation: the
//     absolute deadline is computed once at Submit from the request's
//     relative deadline, so time spent queued is charged against the
//     query's budget naturally and never double-counted;
//   - per-tenant token-bucket quotas plus a global in-flight limit, with
//     a machine-readable AdmissionOutcome and a retry_after hint on
//     every shed;
//   - an OverloadController stepping through degradation tiers (full →
//     counters-only tracing → reduced candidate caps → filter-tree-only
//     probes) with hysteretic recovery;
//   - graceful drain: in-flight queries complete, new submissions get a
//     terminal kShedShutdown, and no ticket is ever left unanswered.
//
// Contract: every Submit() returns a ticket that receives EXACTLY ONE
// terminal result — admitted-and-answered or shed-with-guidance — no
// matter which failpoints fire or when Drain() races the submission.
// The chaos-soak suite (tests/serving_chaos_test.cc) holds the service
// to that contract under TSan.
//
// Lock order: mu_ (admission/queue state) is self-contained; a ticket's
// own lock is only taken with mu_ released. DESIGN.md §13 documents the
// full protocol.

#ifndef MVOPT_SERVE_SERVING_SERVICE_H_
#define MVOPT_SERVE_SERVING_SERVICE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/query_budget.h"
#include "common/thread_annotations.h"
#include "observe/observe.h"
#include "optimizer/optimizer.h"
#include "query/spjg.h"
#include "rewrite/substitute_source.h"
#include "serve/admission.h"
#include "serve/overload_controller.h"

namespace mvopt {

/// One query submission. The query is copied into the ticket (SpjgQuery
/// is shared_ptr-backed plain data), so the caller's copy may go out of
/// scope before the ticket completes.
struct ServeRequest {
  SpjgQuery query;
  /// Tenant key for quota accounting; "" is a valid tenant.
  std::string tenant;
  /// Relative deadline in seconds; <= 0 means no deadline. Converted to
  /// an absolute QueryBudget deadline at Submit, so queue wait counts
  /// against it.
  double deadline_seconds = 0;
  /// Staleness tolerance in update epochs (see QueryBudget).
  uint64_t max_staleness = 0;
  /// When set, an admitted answer that uses no materialized view is
  /// reported as ServeErrorKind::kVerifyRejected (deterministic — the
  /// retry policy never resubmits it).
  bool require_view_answer = false;
  /// Per-query RNG seed threaded into the QueryContext.
  uint64_t rng_seed = 0x9e3779b97f4a7c15ull;
};

/// Terminal result delivered to a ticket exactly once.
struct ServeResult {
  AdmissionOutcome outcome = AdmissionOutcome::kAdmitted;
  /// Tier the query executed at (meaningful only when admitted).
  ServingTier tier = ServingTier::kFull;
  /// Backoff guidance on retryable sheds, in seconds (clamped to the
  /// service's [min,max] window); 0 on success and terminal outcomes.
  double retry_after_seconds = 0;
  /// Time the query spent in the admission queue (admitted only).
  double queue_seconds = 0;
  ServeErrorKind error_kind = ServeErrorKind::kNone;
  /// Human-readable detail for error_kind != kNone.
  std::string error;
  /// True when `opt` carries a plan (admitted, executed cleanly).
  bool has_plan = false;
  OptimizationResult opt;
};

/// Completion handle for one submission. Submit() always returns a
/// ticket; Wait() blocks until the terminal result is published (sheds
/// are published before Submit returns, so Wait never blocks for them).
class ServeTicket {
 public:
  /// Returns a copy so the `service.Submit(req)->Wait()` idiom is safe:
  /// a reference into the ticket would dangle once the temporary
  /// shared_ptr releases the last ownership of it.
  ServeResult Wait() MVOPT_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    while (!done_) cv_.Wait(lock);
    return result_;
  }
  bool done() const MVOPT_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return done_;
  }

 private:
  friend class ServingService;

  // Immutable request payload, written once in Submit before the ticket
  // is shared.
  ServeRequest request_;
  bool has_deadline_ = false;
  QueryBudget::Clock::time_point deadline_{};
  QueryBudget::Clock::time_point enqueue_time_{};

  /// Publish guard: the first fetch_add wins; any later publish attempt
  /// is counted as a duplicate in ServingStats instead of overwriting
  /// the result (asserts are compiled out in release builds, so the
  /// exactly-once property must be *observable*, not just asserted).
  std::atomic<int> publishes_{0};

  mutable Mutex mu_;
  CondVar cv_;
  bool done_ MVOPT_GUARDED_BY(mu_) = false;
  ServeResult result_ MVOPT_GUARDED_BY(mu_);
};

/// What the front end does with a query that routes to a quarantined
/// catalog shard (sharded catalogs only; see shard/ and DESIGN.md §14).
enum class PartialCatalogPolicy {
  /// Serve it: healthy shards answer, the result carries the sticky
  /// kPartialCatalog degradation advisory. The default — partial
  /// availability is the point of shard isolation.
  kDegrade = 0,
  /// Shed it with kShedPartialCatalog (retryable — the scrubber may
  /// readmit the shard). For callers that require complete answers.
  kShed,
};

struct ServingOptions {
  /// Worker threads executing admitted queries (clamped to >= 1; the
  /// queue needs an independent consumer for drain to terminate).
  int num_workers = 2;
  /// Bounded admission queue. 0 is legal and sheds every submission
  /// with kShedQueueFull — the degenerate "serve nothing" configuration
  /// the edge-case tests pin down.
  size_t queue_capacity = 64;
  /// Global limit on queries admitted but not yet answered (queued +
  /// executing). 0 = unlimited. Breaches shed with kShedOverload.
  int64_t max_in_flight = 0;
  /// Per-tenant quota applied to tenants without an explicit
  /// SetTenantQuota. nullopt = unknown tenants are unlimited.
  std::optional<TokenBucketConfig> default_quota;
  OverloadControllerConfig overload;
  /// Tier the controller starts at (tests pin degraded tiers directly).
  ServingTier initial_tier = ServingTier::kFull;
  /// Candidate cap applied at ServingTier::kReducedCandidates.
  int64_t reduced_candidate_cap = 8;
  /// Clamp window for retry_after hints on retryable sheds.
  double min_retry_after_seconds = 0.001;
  double max_retry_after_seconds = 5.0;
  /// Fallback per-query execution estimate (seconds) used for
  /// retry_after hints until the EWMA has a real sample.
  double default_exec_seconds_estimate = 0.005;
  /// Options for the service-owned Optimizer (including its observe
  /// knob); the MatchingService passed to the constructor carries its
  /// own.
  OptimizerOptions optimizer;
  /// Serving-layer observability (queue gauges, shed counters, wait
  /// histograms). Independent of optimizer.observe.
  ObserveOptions observe;
  /// Clock used for token-bucket refill only (never for query
  /// deadlines, which must track the real QueryBudget clock). Tests
  /// inject a manual clock to pin quota decisions; null = steady_clock.
  std::function<TokenBucket::Clock::time_point()> quota_clock;
  /// Test seam: invoked by the worker after dequeue, before execution.
  /// Lets tests hold a worker mid-query (to fill the queue or race a
  /// drain deterministically). Runs with no service lock held.
  std::function<void(const ServeRequest&)> pre_execute_hook;
  /// Shard-health probe: returns true when a catalog shard the query
  /// routes to is unavailable (wire to
  /// ShardedCatalogService::AnyRoutedUnhealthy). Null = never partial
  /// (the single-store MatchingService). Called under the admission
  /// lock — must be cheap and must not call back into the service.
  std::function<bool(const SpjgQuery&)> partial_catalog_probe;
  PartialCatalogPolicy partial_catalog = PartialCatalogPolicy::kDegrade;
  /// retry_after hint on kShedPartialCatalog (scrub-backoff scale, not
  /// backlog turnover — the queue is irrelevant to a quarantined shard).
  double partial_catalog_retry_seconds = 0.05;
};

/// Monotonic totals since construction; snapshot via stats().
struct ServingStats {
  int64_t submitted = 0;
  /// Terminal outcomes by AdmissionOutcome index; outcomes[0]
  /// (kAdmitted) counts queries answered after execution.
  std::array<int64_t, kNumAdmissionOutcomes> outcomes{};
  /// Admitted queries that finished execution, by error kind.
  std::array<int64_t, kNumServeErrorKinds> completions{};
  /// Publish attempts that lost the exactly-once race (must stay 0; the
  /// chaos suite fails the run otherwise).
  int64_t duplicate_publishes = 0;
  /// Primary publish path failures recovered by the fallback path.
  int64_t publish_retries = 0;
  int64_t tier_escalations = 0;
  int64_t tier_recoveries = 0;
  int64_t max_queue_depth = 0;
  double ewma_exec_seconds = 0;
};

class ServingService {
 public:
  /// The catalog/matching pipeline is borrowed and must outlive the
  /// service. `matching` may be null (serving without materialized
  /// views, as with the bare Optimizer) or any SubstituteSource — the
  /// single-store MatchingService or the sharded catalog.
  ServingService(const Catalog* catalog, SubstituteSource* matching,
                 ServingOptions options = {});
  ~ServingService();

  ServingService(const ServingService&) = delete;
  ServingService& operator=(const ServingService&) = delete;

  /// Admits or sheds one query. Never blocks on execution: sheds are
  /// decided and published synchronously; admitted queries are answered
  /// by a worker, observable via the returned ticket. Safe from any
  /// thread, including concurrently with Drain().
  std::shared_ptr<ServeTicket> Submit(ServeRequest request)
      MVOPT_EXCLUDES(mu_);

  /// Installs or replaces one tenant's quota at runtime (administrative
  /// reset: the tenant starts the new config with a full burst). Takes
  /// effect for the next admission decision.
  void SetTenantQuota(const std::string& tenant, TokenBucketConfig config)
      MVOPT_EXCLUDES(mu_);

  /// Graceful shutdown: stops admitting (new submissions shed with
  /// kShedShutdown), lets workers finish every already-admitted query,
  /// then joins them. Idempotent; concurrent callers block until the
  /// drain completes. Must not be called from a worker-executed query.
  void Drain() MVOPT_EXCLUDES(mu_);

  ServingStats stats() const MVOPT_EXCLUDES(mu_);
  ServingTier tier() const { return controller_.tier(); }
  size_t queue_depth() const MVOPT_EXCLUDES(mu_);
  bool draining() const MVOPT_EXCLUDES(mu_);

 private:
  enum class State { kRunning, kDraining, kStopped };

  void WorkerLoop() MVOPT_EXCLUDES(mu_);
  /// Executes one admitted query at `tier` and returns its result
  /// (exceptions → kTransient; never throws).
  ServeResult ExecuteQuery(const ServeTicket& ticket, ServingTier tier,
                           double queue_seconds);
  /// Delivers `result` to `ticket` exactly once; loses the race →
  /// duplicate_publishes. Call with mu_ released.
  void Publish(const std::shared_ptr<ServeTicket>& ticket, ServeResult result)
      MVOPT_EXCLUDES(mu_);
  /// Terminal-outcome bookkeeping shared by every publish site.
  void RecordOutcome(const ServeResult& result) MVOPT_EXCLUDES(mu_);

  /// Feeds the controller one pressure sample and mirrors tier moves
  /// into stats/metrics.
  void UpdateControllerLocked(double depth_ratio, double queue_wait_seconds)
      MVOPT_REQUIRES(mu_);
  /// Tenant's bucket, creating it from default_quota on first sight;
  /// null = tenant is unlimited.
  TokenBucket* TenantBucketLocked(const std::string& tenant)
      MVOPT_REQUIRES(mu_);

  TokenBucket::Clock::time_point QuotaNow() const;
  double ClampRetryAfter(double seconds) const;
  /// Estimated seconds until the queue/in-flight backlog turns over.
  double BacklogRetryAfterLocked(int64_t backlog) const
      MVOPT_REQUIRES(mu_);
  void RegisterMetrics();

  const Catalog* catalog_;
  SubstituteSource* matching_;
  ServingOptions options_;
  Optimizer optimizer_;
  OverloadController controller_;

  mutable Mutex mu_;
  CondVar queue_cv_;    // workers wait here for queue activity / drain
  CondVar stopped_cv_;  // Drain() latecomers wait here for kStopped
  State state_ MVOPT_GUARDED_BY(mu_) = State::kRunning;
  std::deque<std::shared_ptr<ServeTicket>> queue_ MVOPT_GUARDED_BY(mu_);
  int64_t in_flight_ MVOPT_GUARDED_BY(mu_) = 0;
  std::unordered_map<std::string, TokenBucket> buckets_ MVOPT_GUARDED_BY(mu_);
  /// EWMA of execution seconds feeding retry_after estimates.
  double ewma_exec_seconds_ MVOPT_GUARDED_BY(mu_) = 0;
  bool has_exec_sample_ MVOPT_GUARDED_BY(mu_) = false;
  /// Queue wait of the most recently dequeued query (controller input).
  double last_queue_wait_seconds_ MVOPT_GUARDED_BY(mu_) = 0;

  // Stats. Plain fields are guarded; duplicate_publishes is atomic
  // because the losing publisher records it without mu_.
  ServingStats stats_ MVOPT_GUARDED_BY(mu_);
  std::atomic<int64_t> duplicate_publishes_{0};

  /// Cached registry instruments; all null when counters are off.
  struct ServeMetrics {
    Counter* submitted = nullptr;
    std::array<Counter*, kNumAdmissionOutcomes> outcomes{};
    std::array<Counter*, kNumServeErrorKinds> completions{};
    Counter* publish_retries = nullptr;
    Counter* duplicate_publishes = nullptr;
    Counter* tier_escalations = nullptr;
    Counter* tier_recoveries = nullptr;
    Gauge* queue_depth = nullptr;
    Gauge* in_flight = nullptr;
    Gauge* tier = nullptr;
    Histogram* queue_wait = nullptr;
    Histogram* exec_latency = nullptr;
  };
  ServeMetrics metrics_;

  /// Started last in the constructor, joined by Drain; immutable in
  /// between.
  std::vector<std::thread> workers_;
};

}  // namespace mvopt

#endif  // MVOPT_SERVE_SERVING_SERVICE_H_
