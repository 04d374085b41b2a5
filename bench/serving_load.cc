// Serving front-end load bench, two phases.
//
// Open loop: arrivals at 0.5x / 1x / 2x of the measured service
// capacity, reporting end-to-end latency percentiles and the shed rate
// at each point. The robustness claim under test: with the bounded
// admission queue, the p99 latency of ADMITTED queries stays bounded even
// at 2x saturation — overload surfaces as a rising shed rate, not as
// unbounded queueing delay. Without admission control an open-loop 2x
// offered load grows the queue (and the tail) without limit.
//
// Saturation: one closed-loop throughput row per worker count (1, 2, 4).
// A submitter keeps two queries per worker in flight, so every worker
// always has a query waiting while the queue stays far below the
// overload controller's high-water mark (no tier escalation, no shed).
// This is how the system spends cores: across queries, one worker each.
//
// Knobs:
//   MVOPT_BENCH_QUERIES   submissions per load point and per saturation
//                         row (default 2000)
//
// Output: JSON to stdout in the bench/bench_report.h envelope (redirect
// into results/serving_load.json); a human-readable table on stderr.

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_report.h"
#include "bench/harness.h"
#include "serve/serving_service.h"

namespace {

using namespace mvopt;
using Clock = std::chrono::steady_clock;

struct LoadPoint {
  double multiplier = 0;
  double offered_qps = 0;
  int64_t submitted = 0;
  int64_t admitted = 0;
  int64_t shed = 0;
  double shed_rate = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
};

double Percentile(std::vector<double>* sorted, double p) {
  if (sorted->empty()) return 0;
  std::sort(sorted->begin(), sorted->end());
  const size_t index = static_cast<size_t>(
      p * static_cast<double>(sorted->size() - 1) + 0.5);
  return (*sorted)[std::min(index, sorted->size() - 1)];
}

/// One open-loop run: paced submissions at `rate` qps while a collector
/// thread waits each ticket in FIFO order and stamps its completion.
/// FIFO waiting can only overestimate an out-of-order completion's
/// latency, which is conservative for a bounded-tail claim.
LoadPoint RunPoint(const bench::Workload& workload, MatchingService* matching,
                   double multiplier, double rate, int total) {
  ServingOptions options;
  options.num_workers = 2;
  options.queue_capacity = 64;
  ServingService service(&workload.catalog(), matching, options);

  struct Pending {
    std::shared_ptr<ServeTicket> ticket;
    Clock::time_point submitted;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> pending;
  bool done_submitting = false;

  LoadPoint point;
  point.multiplier = multiplier;
  point.offered_qps = rate;
  std::vector<double> latencies_ms;
  latencies_ms.reserve(static_cast<size_t>(total));

  std::thread collector([&] {
    for (;;) {
      Pending next;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !pending.empty() || done_submitting; });
        if (pending.empty()) return;
        next = pending.front();
        pending.pop_front();
      }
      const ServeResult& result = next.ticket->Wait();
      const double ms = std::chrono::duration<double, std::milli>(
                            Clock::now() - next.submitted)
                            .count();
      if (result.outcome == AdmissionOutcome::kAdmitted) {
        ++point.admitted;
        latencies_ms.push_back(ms);
      } else {
        ++point.shed;
      }
    }
  });

  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / rate));
  auto next_arrival = Clock::now();
  for (int i = 0; i < total; ++i) {
    std::this_thread::sleep_until(next_arrival);
    next_arrival += interval;
    ServeRequest req;
    req.query = workload.queries()[static_cast<size_t>(i) %
                                   workload.queries().size()];
    req.tenant = "load";
    Pending entry{service.Submit(req), Clock::now()};
    ++point.submitted;
    {
      std::lock_guard<std::mutex> lock(mu);
      pending.push_back(std::move(entry));
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done_submitting = true;
  }
  cv.notify_one();
  collector.join();
  service.Drain();

  point.shed_rate = point.submitted > 0
                        ? static_cast<double>(point.shed) /
                              static_cast<double>(point.submitted)
                        : 0;
  point.p50_ms = Percentile(&latencies_ms, 0.50);
  point.p95_ms = Percentile(&latencies_ms, 0.95);
  point.p99_ms = Percentile(&latencies_ms, 0.99);
  return point;
}

struct SaturationPoint {
  int num_workers = 0;
  int window = 0;
  int64_t completed = 0;
  int64_t shed = 0;
  int64_t tier_escalations = 0;
  double seconds = 0;
};

/// One closed-loop run: keeps `2 * num_workers` queries in flight and
/// submits the next one as the oldest completes, until `total` are done.
SaturationPoint RunSaturation(const bench::Workload& workload,
                              MatchingService* matching, int num_workers,
                              int total) {
  ServingOptions options;
  options.num_workers = num_workers;
  options.queue_capacity = 64;
  ServingService service(&workload.catalog(), matching, options);

  SaturationPoint point;
  point.num_workers = num_workers;
  point.window = 2 * num_workers;
  std::deque<std::shared_ptr<ServeTicket>> in_flight;
  int submitted = 0;
  auto submit_next = [&] {
    ServeRequest req;
    req.query = workload.queries()[static_cast<size_t>(submitted) %
                                   workload.queries().size()];
    req.tenant = "saturation";
    in_flight.push_back(service.Submit(req));
    ++submitted;
  };
  const auto start = Clock::now();
  while (submitted < std::min(point.window, total)) submit_next();
  while (!in_flight.empty()) {
    const ServeResult result = in_flight.front()->Wait();
    in_flight.pop_front();
    if (result.outcome == AdmissionOutcome::kAdmitted) {
      ++point.completed;
    } else {
      ++point.shed;
    }
    if (submitted < total) submit_next();
  }
  point.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  service.Drain();
  point.tier_escalations = service.stats().tier_escalations;
  return point;
}

}  // namespace

int main() {
  using namespace mvopt;
  using namespace mvopt::bench;

  const int total = EnvInt("MVOPT_BENCH_QUERIES", 2000);

  Workload workload(/*num_views=*/200, /*num_queries=*/64);
  auto matching = workload.MakeService(200, /*use_filter_tree=*/true);

  // Measure the per-query round-trip time with a serial closed loop
  // (submit, wait, repeat). This deliberately includes the submit and
  // wakeup overhead the paced run pays per query, so the capacity
  // estimate matches what the open-loop sweep can actually sustain.
  // Parallel workers only add capacity when there are cores to run them.
  const unsigned hw = std::thread::hardware_concurrency();
  constexpr int kOpenLoopWorkers = 2;
  double capacity_qps;
  {
    ServingOptions options;
    options.num_workers = kOpenLoopWorkers;
    options.queue_capacity = 64;
    ServingService probe(&workload.catalog(), matching.get(), options);
    const int warm = 64;
    const auto start = Clock::now();
    for (int i = 0; i < warm; ++i) {
      ServeRequest req;
      req.query = workload.queries()[static_cast<size_t>(i) %
                                     workload.queries().size()];
      req.tenant = "probe";
      probe.Submit(req)->Wait();
    }
    const double mean_seconds =
        std::chrono::duration<double>(Clock::now() - start).count() / warm;
    probe.Drain();
    const double effective_workers =
        std::min<double>(options.num_workers, std::max(1u, hw));
    capacity_qps = effective_workers / std::max(mean_seconds, 1e-6);
  }

  JsonReport report("serving_load");
  report.Caveat(
      "open_loop rows: 2 workers, arrivals paced against capacity_qps; "
      "saturation rows: closed loop with 2 queries in flight per worker. "
      "Worker counts above host_hw_threads (the submitter needs a core "
      "too) measure scheduling, not scaling");
  report.Meta("views", 200);
  report.Meta("capacity_qps", capacity_qps);
  report.Meta("submissions_per_point", total);

  std::fprintf(stderr,
               "# open loop, %d workers, measured capacity %.0f qps, "
               "host hardware threads %u\n",
               kOpenLoopWorkers, capacity_qps, hw);
  std::fprintf(stderr, "%-6s %12s %10s %10s %10s %10s %10s\n", "load",
               "offered_qps", "admitted", "shed_rate", "p50_ms", "p95_ms",
               "p99_ms");
  for (double multiplier : {0.5, 1.0, 2.0}) {
    const LoadPoint p = RunPoint(workload, matching.get(), multiplier,
                                 multiplier * capacity_qps, total);
    std::fprintf(stderr, "%-6.1f %12.0f %10lld %9.1f%% %10.2f %10.2f %10.2f\n",
                 p.multiplier, p.offered_qps,
                 static_cast<long long>(p.admitted), p.shed_rate * 100.0,
                 p.p50_ms, p.p95_ms, p.p99_ms);
    report.BeginRow();
    report.Field("phase", "open_loop");
    report.Field("load_multiplier", p.multiplier);
    report.Field("offered_qps", p.offered_qps);
    report.Field("submitted", p.submitted);
    report.Field("admitted", p.admitted);
    report.Field("shed", p.shed);
    report.Field("shed_rate", p.shed_rate);
    report.Field("p50_ms", p.p50_ms);
    report.Field("p95_ms", p.p95_ms);
    report.Field("p99_ms", p.p99_ms);
    report.EndRow();
  }

  std::fprintf(stderr, "# saturation, closed loop\n%-8s %12s %8s\n",
               "workers", "throughput", "shed");
  for (int workers : {1, 2, 4}) {
    const SaturationPoint p =
        RunSaturation(workload, matching.get(), workers, total);
    const double qps = static_cast<double>(p.completed) / p.seconds;
    std::fprintf(stderr, "%-8d %12.0f %8lld\n", workers, qps,
                 static_cast<long long>(p.shed));
    report.BeginRow();
    report.Field("phase", "saturation");
    report.Field("num_workers", p.num_workers);
    report.Field("in_flight", p.window);
    report.Field("completed", p.completed);
    report.Field("shed", p.shed);
    report.Field("tier_escalations", p.tier_escalations);
    report.Field("seconds", p.seconds);
    report.Field("throughput_qps", qps);
    report.EndRow();
  }
  report.Finish();
  return 0;
}
