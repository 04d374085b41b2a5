#include "serve/serving_service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <utility>

#include "common/failpoint.h"
#include "common/query_context.h"

namespace mvopt {

namespace {

/// EWMA smoothing for the execution-time estimate feeding retry_after.
constexpr double kEwmaAlpha = 0.2;

double SecondsBetween(QueryBudget::Clock::time_point from,
                      QueryBudget::Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

}  // namespace

ServingService::ServingService(const Catalog* catalog,
                               SubstituteSource* matching,
                               ServingOptions options)
    : catalog_(catalog),
      matching_(matching),
      options_(std::move(options)),
      optimizer_(catalog_, matching_, options_.optimizer),
      controller_(options_.overload, options_.initial_tier) {
  if (options_.num_workers < 1) options_.num_workers = 1;
  RegisterMetrics();
  if (metrics_.tier != nullptr) {
    metrics_.tier->Set(static_cast<int64_t>(options_.initial_tier));
  }
  workers_.reserve(static_cast<size_t>(options_.num_workers));
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ServingService::~ServingService() { Drain(); }

void ServingService::RegisterMetrics() {
  if (!options_.observe.counters_enabled()) return;
  MetricsRegistry* reg = options_.observe.registry;
  metrics_.submitted = reg->FindOrCreateCounter(
      "mvopt_serve_submitted_total", "Queries submitted to the serving layer");
  for (int i = 0; i < kNumAdmissionOutcomes; ++i) {
    metrics_.outcomes[static_cast<size_t>(i)] = reg->FindOrCreateCounter(
        "mvopt_serve_outcomes_total", "Terminal admission outcomes",
        {{"outcome", AdmissionOutcomeName(static_cast<AdmissionOutcome>(i))}});
  }
  for (int i = 0; i < kNumServeErrorKinds; ++i) {
    metrics_.completions[static_cast<size_t>(i)] = reg->FindOrCreateCounter(
        "mvopt_serve_completions_total",
        "Admitted queries answered, by execution error kind",
        {{"kind", ServeErrorKindName(static_cast<ServeErrorKind>(i))}});
  }
  metrics_.publish_retries = reg->FindOrCreateCounter(
      "mvopt_serve_publish_retries_total",
      "Primary result-publish failures recovered by the fallback path");
  metrics_.duplicate_publishes = reg->FindOrCreateCounter(
      "mvopt_serve_duplicate_publishes_total",
      "Publish attempts that lost the exactly-once race (must stay 0)");
  metrics_.tier_escalations = reg->FindOrCreateCounter(
      "mvopt_serve_tier_escalations_total",
      "Overload-controller steps down the degradation ladder");
  metrics_.tier_recoveries = reg->FindOrCreateCounter(
      "mvopt_serve_tier_recoveries_total",
      "Overload-controller steps back toward full service");
  metrics_.queue_depth = reg->FindOrCreateGauge(
      "mvopt_serve_queue_depth", "Admitted queries waiting for a worker");
  metrics_.in_flight = reg->FindOrCreateGauge(
      "mvopt_serve_in_flight", "Admitted queries not yet answered");
  metrics_.tier = reg->FindOrCreateGauge(
      "mvopt_serve_tier", "Current serving tier (0=full .. 3=filter-probe)");
  metrics_.queue_wait = reg->FindOrCreateHistogram(
      "mvopt_serve_queue_wait_seconds", "Time admitted queries spent queued");
  metrics_.exec_latency = reg->FindOrCreateHistogram(
      "mvopt_serve_exec_seconds", "Per-query execution time in the worker");
}

std::shared_ptr<ServeTicket> ServingService::Submit(ServeRequest request) {
  auto ticket = std::make_shared<ServeTicket>();
  ticket->request_ = std::move(request);
  const ServeRequest& req = ticket->request_;
  if (req.deadline_seconds > 0) {
    // The absolute deadline is fixed HERE, from the budget's own clock,
    // so queue wait is charged against it naturally and execution never
    // re-adds time already spent queued (no double-counting).
    ticket->has_deadline_ = true;
    ticket->deadline_ =
        QueryBudget::Clock::now() +
        std::chrono::duration_cast<QueryBudget::Clock::duration>(
            std::chrono::duration<double>(req.deadline_seconds));
  }

  AdmissionOutcome outcome = AdmissionOutcome::kAdmitted;
  double retry_after = 0;
  {
    MutexLock lock(mu_);
    ++stats_.submitted;
    if (metrics_.submitted != nullptr) metrics_.submitted->Increment();
    // Checks are ordered cheapest-first and consume nothing until the
    // query is certain to be enqueued: the tenant token is taken LAST,
    // so a full queue never burns quota.
    if (MVOPT_FAILPOINT_HIT("serving.admit")) {
      outcome = AdmissionOutcome::kShedOverload;
      retry_after = BacklogRetryAfterLocked(std::max<int64_t>(in_flight_, 1));
    } else if (state_ != State::kRunning) {
      outcome = AdmissionOutcome::kShedShutdown;
    } else if (queue_.size() >= options_.queue_capacity) {
      outcome = AdmissionOutcome::kShedQueueFull;
      retry_after =
          BacklogRetryAfterLocked(static_cast<int64_t>(queue_.size()) + 1);
    } else if (options_.max_in_flight > 0 &&
               in_flight_ >= options_.max_in_flight) {
      outcome = AdmissionOutcome::kShedOverload;
      retry_after = BacklogRetryAfterLocked(in_flight_);
    } else if (options_.partial_catalog == PartialCatalogPolicy::kShed &&
               options_.partial_catalog_probe &&
               options_.partial_catalog_probe(req.query)) {
      // A shard this query routes to is quarantined and the caller
      // demands complete answers. Still before the bucket: the tenant
      // pays no quota for an answer the catalog cannot give.
      outcome = AdmissionOutcome::kShedPartialCatalog;
      retry_after = options_.partial_catalog_retry_seconds;
    } else {
      TokenBucket* bucket = TenantBucketLocked(req.tenant);
      double quota_wait = 0;
      if (bucket != nullptr && !bucket->TryAcquire(QuotaNow(), &quota_wait)) {
        outcome = AdmissionOutcome::kShedQuota;
        retry_after = quota_wait;
      } else {
        try {
          MVOPT_FAILPOINT("serving.enqueue");
          ticket->enqueue_time_ = QueryBudget::Clock::now();
          queue_.push_back(ticket);
          ++in_flight_;
          stats_.max_queue_depth = std::max(
              stats_.max_queue_depth, static_cast<int64_t>(queue_.size()));
          if (metrics_.queue_depth != nullptr) {
            metrics_.queue_depth->Set(static_cast<int64_t>(queue_.size()));
          }
          if (metrics_.in_flight != nullptr) {
            metrics_.in_flight->Set(in_flight_);
          }
        } catch (const FailpointTriggered&) {
          // Admission already consumed the tenant token; give it back —
          // the tenant must not pay for a query the service lost.
          if (bucket != nullptr) bucket->Refund();
          outcome = AdmissionOutcome::kShedOverload;
          retry_after =
              BacklogRetryAfterLocked(std::max<int64_t>(in_flight_, 1));
        }
      }
    }
    const double ratio =
        options_.queue_capacity > 0
            ? static_cast<double>(queue_.size()) /
                  static_cast<double>(options_.queue_capacity)
            : 0.0;
    UpdateControllerLocked(ratio, last_queue_wait_seconds_);
  }

  if (outcome == AdmissionOutcome::kAdmitted) {
    queue_cv_.NotifyOne();
  } else {
    ServeResult result;
    result.outcome = outcome;
    result.retry_after_seconds =
        IsRetryableOutcome(outcome) ? ClampRetryAfter(retry_after) : 0;
    Publish(ticket, std::move(result));
  }
  return ticket;
}

void ServingService::SetTenantQuota(const std::string& tenant,
                                    TokenBucketConfig config) {
  MutexLock lock(mu_);
  // An explicit quota install is an administrative reset: the tenant
  // gets a fresh bucket with the new burst immediately (unlike
  // TokenBucket::Reconfigure, which deliberately grants no free burst —
  // an operator raising a throttled tenant's quota expects the raise to
  // take effect now, not after a refill interval).
  buckets_.insert_or_assign(tenant, TokenBucket(config, QuotaNow()));
}

void ServingService::Drain() {
  {
    MutexLock lock(mu_);
    if (state_ == State::kStopped) return;
    if (state_ == State::kDraining) {
      // Another caller owns the join; wait until it finishes.
      while (state_ != State::kStopped) stopped_cv_.Wait(lock);
      return;
    }
    state_ = State::kDraining;
  }
  queue_cv_.NotifyAll();
  try {
    MVOPT_FAILPOINT("serving.drain");
  } catch (const FailpointTriggered&) {
    // Drain must complete even when the injected fault fires: the state
    // transition is already visible, so fall through to the join — a
    // drain that aborts half-way would strand tickets forever.
  }
  for (std::thread& w : workers_) w.join();
  std::vector<std::shared_ptr<ServeTicket>> leftovers;
  {
    MutexLock lock(mu_);
    // Workers drain the queue before exiting, so this is normally
    // empty; anything left (a future bug, not a supported path) still
    // gets a terminal outcome rather than a hung Wait().
    leftovers.assign(queue_.begin(), queue_.end());
    queue_.clear();
    in_flight_ -= static_cast<int64_t>(leftovers.size());
    if (metrics_.queue_depth != nullptr) metrics_.queue_depth->Set(0);
    if (metrics_.in_flight != nullptr) metrics_.in_flight->Set(in_flight_);
    state_ = State::kStopped;
  }
  for (const auto& ticket : leftovers) {
    ServeResult result;
    result.outcome = AdmissionOutcome::kShedShutdown;
    Publish(ticket, std::move(result));
  }
  stopped_cv_.NotifyAll();
}

ServingStats ServingService::stats() const {
  MutexLock lock(mu_);
  ServingStats snapshot = stats_;
  snapshot.duplicate_publishes =
      duplicate_publishes_.load(std::memory_order_relaxed);
  snapshot.ewma_exec_seconds = ewma_exec_seconds_;
  return snapshot;
}

size_t ServingService::queue_depth() const {
  MutexLock lock(mu_);
  return queue_.size();
}

bool ServingService::draining() const {
  MutexLock lock(mu_);
  return state_ != State::kRunning;
}

void ServingService::WorkerLoop() {
  for (;;) {
    std::shared_ptr<ServeTicket> ticket;
    ServingTier tier = ServingTier::kFull;
    double queue_wait = 0;
    {
      MutexLock lock(mu_);
      while (state_ == State::kRunning && queue_.empty()) {
        queue_cv_.Wait(lock);
      }
      if (queue_.empty()) return;  // draining and nothing left to serve
      ticket = queue_.front();
      queue_.pop_front();
      queue_wait =
          SecondsBetween(ticket->enqueue_time_, QueryBudget::Clock::now());
      last_queue_wait_seconds_ = queue_wait;
      const double ratio =
          options_.queue_capacity > 0
              ? static_cast<double>(queue_.size()) /
                    static_cast<double>(options_.queue_capacity)
              : 0.0;
      UpdateControllerLocked(ratio, queue_wait);
      tier = controller_.tier();
      if (metrics_.queue_depth != nullptr) {
        metrics_.queue_depth->Set(static_cast<int64_t>(queue_.size()));
      }
    }
    if (metrics_.queue_wait != nullptr) metrics_.queue_wait->Observe(queue_wait);

    ServeResult result;
    bool dequeue_fault = false;
    try {
      MVOPT_FAILPOINT("serving.dequeue");
    } catch (const FailpointTriggered& e) {
      // The query was admitted, so its ticket still gets a terminal
      // answer: an admitted-but-failed result the retry policy treats
      // as transient.
      dequeue_fault = true;
      result.outcome = AdmissionOutcome::kAdmitted;
      result.tier = tier;
      result.queue_seconds = queue_wait;
      result.error_kind = ServeErrorKind::kTransient;
      result.error = e.what();
    }

    double exec_seconds = 0;
    if (!dequeue_fault) {
      if (options_.pre_execute_hook) {
        options_.pre_execute_hook(ticket->request_);
      }
      const auto exec_start = QueryBudget::Clock::now();
      result = ExecuteQuery(*ticket, tier, queue_wait);
      exec_seconds = SecondsBetween(exec_start, QueryBudget::Clock::now());
      if (metrics_.exec_latency != nullptr) {
        metrics_.exec_latency->Observe(exec_seconds);
      }
    }

    if (MVOPT_FAILPOINT_HIT("serving.result_publish")) {
      // Simulated primary-publish failure: record the recovery and fall
      // through to the (idempotent) publish below — the ticket must
      // receive its result exactly once regardless.
      {
        MutexLock lock(mu_);
        ++stats_.publish_retries;
      }
      if (metrics_.publish_retries != nullptr) {
        metrics_.publish_retries->Increment();
      }
    }
    Publish(ticket, std::move(result));

    {
      MutexLock lock(mu_);
      --in_flight_;
      if (metrics_.in_flight != nullptr) metrics_.in_flight->Set(in_flight_);
      if (!dequeue_fault) {
        ewma_exec_seconds_ = has_exec_sample_
                                 ? (1 - kEwmaAlpha) * ewma_exec_seconds_ +
                                       kEwmaAlpha * exec_seconds
                                 : exec_seconds;
        has_exec_sample_ = true;
      }
    }
  }
}

ServeResult ServingService::ExecuteQuery(const ServeTicket& ticket,
                                         ServingTier tier,
                                         double queue_seconds) {
  ServeResult result;
  result.outcome = AdmissionOutcome::kAdmitted;
  result.tier = tier;
  result.queue_seconds = queue_seconds;

  QueryContext ctx;
  QueryBudget& budget = ctx.EmplaceBudget();
  if (ticket.has_deadline_) budget.set_deadline(ticket.deadline_);
  budget.set_max_staleness(ticket.request_.max_staleness);
  ctx.set_rng_seed(ticket.request_.rng_seed);
  switch (tier) {
    case ServingTier::kFull:
      break;
    case ServingTier::kCountersOnly:
      ctx.set_suppress_trace(true);
      break;
    case ServingTier::kReducedCandidates:
      ctx.set_suppress_trace(true);
      budget.set_candidate_cap(options_.reduced_candidate_cap);
      break;
    case ServingTier::kFilterProbeOnly:
      // Cap 0: the filter tree is still probed but the first candidate
      // trips kCandidateCapReached, so the match stage never runs — the
      // cheapest still-correct answer (base-table plan).
      ctx.set_suppress_trace(true);
      budget.set_candidate_cap(0);
      break;
  }

  try {
    MVOPT_FAILPOINT("serving.execute");
    result.opt = optimizer_.Optimize(ticket.request_.query, ctx);
    result.has_plan = result.opt.plan != nullptr;
    if (ticket.request_.require_view_answer && !result.opt.uses_view) {
      result.error_kind = ServeErrorKind::kVerifyRejected;
      result.error = "no view-based answer available under verification";
      result.has_plan = false;
    }
  } catch (const std::exception& e) {
    result.error_kind = ServeErrorKind::kTransient;
    result.error = e.what();
    result.has_plan = false;
  }
  return result;
}

void ServingService::Publish(const std::shared_ptr<ServeTicket>& ticket,
                             ServeResult result) {
  const int prior = ticket->publishes_.fetch_add(1, std::memory_order_acq_rel);
  if (prior != 0) {
    // Exactly-once violation: observable (not just assertable) so the
    // chaos suite fails loudly even with NDEBUG.
    duplicate_publishes_.fetch_add(1, std::memory_order_relaxed);
    if (metrics_.duplicate_publishes != nullptr) {
      metrics_.duplicate_publishes->Increment();
    }
    return;
  }
  RecordOutcome(result);
  {
    MutexLock lock(ticket->mu_);
    ticket->result_ = std::move(result);
    ticket->done_ = true;
  }
  ticket->cv_.NotifyAll();
}

void ServingService::RecordOutcome(const ServeResult& result) {
  const auto outcome_idx = static_cast<size_t>(result.outcome);
  {
    MutexLock lock(mu_);
    ++stats_.outcomes[outcome_idx];
    if (result.outcome == AdmissionOutcome::kAdmitted) {
      ++stats_.completions[static_cast<size_t>(result.error_kind)];
    }
  }
  if (metrics_.outcomes[outcome_idx] != nullptr) {
    metrics_.outcomes[outcome_idx]->Increment();
  }
  if (result.outcome == AdmissionOutcome::kAdmitted) {
    Counter* c = metrics_.completions[static_cast<size_t>(result.error_kind)];
    if (c != nullptr) c->Increment();
  }
}

void ServingService::UpdateControllerLocked(double depth_ratio,
                                            double queue_wait_seconds) {
  const ServingTier before = controller_.tier();
  const ServingTier after =
      controller_.Update(depth_ratio, queue_wait_seconds);
  if (static_cast<int>(after) > static_cast<int>(before)) {
    ++stats_.tier_escalations;
    if (metrics_.tier_escalations != nullptr) {
      metrics_.tier_escalations->Increment();
    }
  } else if (static_cast<int>(after) < static_cast<int>(before)) {
    ++stats_.tier_recoveries;
    if (metrics_.tier_recoveries != nullptr) {
      metrics_.tier_recoveries->Increment();
    }
  }
  if (metrics_.tier != nullptr) {
    metrics_.tier->Set(static_cast<int64_t>(after));
  }
}

TokenBucket* ServingService::TenantBucketLocked(const std::string& tenant) {
  auto it = buckets_.find(tenant);
  if (it != buckets_.end()) return &it->second;
  if (!options_.default_quota.has_value()) return nullptr;
  auto inserted =
      buckets_.emplace(tenant, TokenBucket(*options_.default_quota, QuotaNow()));
  return &inserted.first->second;
}

TokenBucket::Clock::time_point ServingService::QuotaNow() const {
  return options_.quota_clock ? options_.quota_clock()
                              : TokenBucket::Clock::now();
}

double ServingService::ClampRetryAfter(double seconds) const {
  if (!std::isfinite(seconds)) return options_.max_retry_after_seconds;
  return std::clamp(seconds, options_.min_retry_after_seconds,
                    options_.max_retry_after_seconds);
}

double ServingService::BacklogRetryAfterLocked(int64_t backlog) const {
  double est = has_exec_sample_ ? ewma_exec_seconds_
                                : options_.default_exec_seconds_estimate;
  // The estimate must stay positive: before the EWMA has a sample a
  // zeroed default_exec_seconds_estimate (or, once seeded, an EWMA fed
  // sub-clock-resolution executions) would otherwise produce
  // retry_after == 0 on a retryable shed — an instruction to hammer the
  // service immediately, the opposite of backpressure. (ClampRetryAfter
  // cannot be relied on to repair this: its minimum is configurable down
  // to zero.) Floor at 100us, well below any real execution.
  constexpr double kMinExecSecondsEstimate = 1e-4;
  if (!(est > 0)) est = kMinExecSecondsEstimate;
  if (backlog < 1) backlog = 1;  // a shed implies at least one queue slot
  const double workers =
      workers_.empty() ? 1.0 : static_cast<double>(workers_.size());
  return static_cast<double>(backlog) * est / workers;
}

}  // namespace mvopt
