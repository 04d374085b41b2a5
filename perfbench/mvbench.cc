// mvbench: the repository benchmark. One binary runs one workload and
// prints its metrics as one JSON line (README.md says why each workload
// exists and defines every metric):
//
//   fig3_1k      paper Fig. 2-3: 1,000 views registered through AddView,
//                1,000 queries optimized in a one-thread closed loop
//   views_10k    10,000 views recovered from a catalog snapshot, then a
//                few AddView calls against the large catalog; the same
//                queries in a one-thread closed loop
//   serve_churn  1,000 views in a 4-shard catalog behind a 2-worker
//                ServingService; an open-loop sender at a constant rate
//                and a writer registering a fixed number of views spread
//                over the measured time
//
// Usage: mvbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                [--work-dir DIR]
//
// --trace 0 prints the end-to-end metrics. --trace 1 (mvbench_traced only)
// prints the per-layer metrics: spans are recorded around the calls this
// file makes into each layer (Optimizer::Optimize, a SubstituteSource
// decorator, the QueryContext stage hook, ServingService::Submit,
// AddView / RecoverFrom) and allocations are counted by alloc_count.cc.
// Traced and untraced rounds alternate within a traced run, which gives
// the tracing overhead. Nothing here changes the library under test.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "index/matching_service.h"
#include "optimizer/optimizer.h"
#include "rewrite/catalog_store.h"
#include "serve/serving_service.h"
#include "shard/sharded_catalog_service.h"
#include "tpch/schema.h"
#include "tpch/workload.h"

#ifdef MVBENCH_TRACED
#include "alloc_count.h"
#else
namespace perfbench {
struct AllocTally {
  int64_t count = 0;
  int64_t bytes = 0;
  int64_t freed = 0;
};
inline AllocTally ThreadAllocTally() { return {}; }
inline void SetAllocCounting(bool) {}
struct AllocPause {
  AllocPause() {}
};
}  // namespace perfbench
#endif

namespace perfbench {
namespace {

using namespace mvopt;
using Clock = std::chrono::steady_clock;

// Workload constants. They are part of the workload definition: changing
// any of them changes what the benchmark measures.
constexpr int kFig3Views = 1000;
constexpr int kLargeViews = 10000;
constexpr int kQueries = 1000;
constexpr int kLargeAddViews = 10;  // views_10k, traced: AddView calls
constexpr int kServeViews = 1000;
constexpr int kServeShards = 4;
constexpr int kServeWorkers = 2;
// Constant offered load, about a third of what the two workers sustain on
// a slow 4-vCPU host, so the queue stays short even in a slow period.
constexpr double kServeRateQps = 1000;
// Registrations per serve_churn segment, spread evenly over its measured
// slices. A fixed count, so the workload does not depend on the run
// length, and small next to kServeViews (the catalog grows by 3% within a
// segment), so early and late slices probe catalogs of about one size.
constexpr int kServeWriterViews = 30;
// The first second after the service starts is several times slower than
// the rest (worker arenas and caches warming), so it is not measured.
constexpr double kServeWarmSeconds = 2.0;
constexpr double kServeSliceSeconds = 1.0;
constexpr size_t kServeQueueCapacity = 4096;
constexpr int kSetupRepeats = 3;

// ------------------------------------------------------------- metrics

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Printed by every untraced run, for every workload.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},         {"throughput_qps", "1/s"},
    {"latency_p50_us", "us"}, {"latency_tail_us", "us"},
    {"peak_rss_mb", "MB"},
};

/// Printed by every traced run, for every workload; a layer the workload
/// never enters reads 0 and is named on a "not exercised" line.
constexpr MetricDef kPerLayer[] = {
    {"serve.submit_us.p50", "us"},
    {"serve.queue_wait_us.p50", "us"},
    {"serve.queue_wait_us.p90", "us"},
    {"serve.service_us.p50", "us"},
    {"serve.service_us.p90", "us"},
    {"serve.shed", "count"},
    {"serve.tier_escalations", "count"},
    {"serve.duplicate_publishes", "count"},
    {"serve.sender_late_us.p99", "us"},
    {"shard.rule_us_per_invocation", "us"},
    {"shard.routed_per_invocation", "count"},
    {"shard.candidates_per_invocation", "count"},
    {"shard.addview_us.p50", "us"},
    {"shard.addview_us.p99", "us"},
    {"snapshot.retired_max", "count"},
    {"optimizer.optimize_us.p50", "us"},
    {"optimizer.self_us_per_query", "us"},
    {"optimizer.groups_per_query", "count"},
    {"optimizer.exprs_per_query", "count"},
    {"optimizer.invocations_per_query", "count"},
    {"optimizer.substitutes_per_query", "count"},
    {"optimizer.plans_using_views", "count"},
    {"vm.rule_us_per_invocation", "us"},
    {"vm.rule_share", "ratio"},
    {"vm.stage.probe_us", "us"},
    {"vm.stage.prefilter_us", "us"},
    {"vm.stage.match_us", "us"},
    {"vm.stage.compensate_us", "us"},
    {"vm.stage.cost_annotate_us", "us"},
    {"vm.unattributed_us", "us"},
    {"vm.candidates_per_invocation", "count"},
    {"vm.full_tests_per_invocation", "count"},
    {"vm.substitutes_per_invocation", "count"},
    {"vm.useful_ratio", "ratio"},
    {"match.compiled_hits", "count"},
    {"match.fallbacks", "count"},
    {"match.fallback_ratio", "ratio"},
    {"registration.addview_us.p50", "us"},
    {"registration.addview_us.p99", "us"},
    {"registration.bytes_per_view", "B"},
    {"recovery.scan_s", "s"},
    {"recovery.rebuild_s", "s"},
    {"alloc.count_per_query", "count"},
    {"alloc.bytes_per_query", "B"},
    {"alloc.count_per_addview", "count"},
    {"trace.overhead_frac", "ratio"},
};

// ------------------------------------------------------------ utilities

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Nearest-rank quantile of `v` (copied; 0 when empty).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  size_t k = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  k = std::min(std::max<size_t>(k, 1), v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

double Ratio(double num, double den) { return den != 0 ? num / den : 0; }

/// Element-wise minimum of equally long rows: the fastest of several
/// repetitions of the same operations.
std::vector<double> BestOf(const std::vector<const std::vector<double>*>& rows) {
  std::vector<double> best;
  for (const std::vector<double>* row : rows) {
    if (best.empty()) {
      best = *row;
      continue;
    }
    for (size_t i = 0; i < best.size() && i < row->size(); ++i) {
      best[i] = std::min(best[i], (*row)[i]);
    }
  }
  return best;
}

double PeakRssMb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void PrintSpread(const char* what, const std::vector<double>& v,
                 const char* unit) {
  if (v.empty()) return;
  std::printf("# %s: min %.1f p25 %.1f median %.1f max %.1f %s (n=%zu)\n",
              what, *std::min_element(v.begin(), v.end()), Quantile(v, 0.25),
              Median(v),
              *std::max_element(v.begin(), v.end()), unit, v.size());
}

uint64_t HashBytes(uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;  // FNV-1a
  }
  return h;
}

constexpr uint64_t kDigestSeed = 0xcbf29ce484222325ull;

/// Folds one chosen plan into a plan digest.
uint64_t FoldPlan(uint64_t h, const Catalog& catalog,
                  const OptimizationResult& r) {
  h = HashBytes(h, r.plan != nullptr ? r.plan->ToString(catalog) : "<none>");
  return HashBytes(h, r.uses_view ? "V" : "B");
}

// ---------------------------------------------------------------- spans

/// One timed interval. Parents index into the same thread's buffer;
/// `request` ties the spans of one query or registration together across
/// threads (serve: submit on the sender, rule calls on a worker).
struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;
  int64_t request;
};

/// In-memory span recorder with one buffer per thread. Recording is on
/// only while `enabled` is set (traced rounds of a traced run). Its own
/// allocations are not counted as the library's.
class Tracer {
 public:
  struct Buffer {
    std::vector<Span> spans;
    std::vector<int32_t> open;  // stack of unfinished spans
  };

  std::atomic<bool> enabled{false};

  bool on() const { return enabled.load(std::memory_order_relaxed); }

  static int64_t Ns(Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t.time_since_epoch())
        .count();
  }

  /// Opens a span as a child of the thread's innermost open span.
  int32_t Begin(const char* name, int64_t request, Clock::time_point start) {
    AllocPause pause;
    Buffer& b = Local();
    const int32_t parent = b.open.empty() ? -1 : b.open.back();
    b.spans.push_back({name, Ns(start), -1, parent, request});
    b.open.push_back(static_cast<int32_t>(b.spans.size() - 1));
    return b.open.back();
  }
  void End(int32_t index, Clock::time_point end) {
    Buffer& b = Local();
    b.spans[static_cast<size_t>(index)].end_ns = Ns(end);
    b.open.pop_back();
  }
  /// Records a finished child of the innermost open span.
  void Complete(const char* name, Clock::time_point start,
                Clock::time_point end) {
    AllocPause pause;
    Buffer& b = Local();
    const int32_t parent = b.open.empty() ? -1 : b.open.back();
    const int64_t request =
        parent < 0 ? -1 : b.spans[static_cast<size_t>(parent)].request;
    b.spans.push_back({name, Ns(start), Ns(end), parent, request});
  }

  /// Every thread's buffer; read only while no thread records.
  const std::deque<Buffer>& buffers() const { return buffers_; }

 private:
  Buffer& Local() {
    thread_local Buffer* local = nullptr;
    if (local == nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      local = &buffers_.emplace_back();
    }
    return *local;
  }

  std::mutex mu_;
  std::deque<Buffer> buffers_;
};

Tracer g_tracer;

/// Per span name: count, total duration and self time (duration minus
/// the part covered by its direct children).
struct SpanTotals {
  int64_t count = 0;
  double total_us = 0;
  double self_us = 0;
};

/// Span totals by name over the spans recorded from index `from` of each
/// thread's buffer on (so one run can summarize two phases apart).
class SpanSummary {
 public:
  static std::vector<size_t> Mark(const Tracer& tracer) {
    std::vector<size_t> mark;
    for (const Tracer::Buffer& b : tracer.buffers()) {
      mark.push_back(b.spans.size());
    }
    return mark;
  }

  SpanSummary(const Tracer& tracer, const std::vector<size_t>& from) {
    size_t thread = 0;
    for (const Tracer::Buffer& b : tracer.buffers()) {
      const size_t first = thread < from.size() ? from[thread] : 0;
      ++thread;
      std::vector<double> child_us(b.spans.size(), 0.0);
      for (size_t i = first; i < b.spans.size(); ++i) {
        const Span& s = b.spans[i];
        if (s.parent >= 0 && s.end_ns >= 0) {
          child_us[static_cast<size_t>(s.parent)] +=
              static_cast<double>(s.end_ns - s.start_ns) / 1e3;
        }
      }
      for (size_t i = first; i < b.spans.size(); ++i) {
        const Span& s = b.spans[i];
        if (s.end_ns < 0) continue;
        const double us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
        SpanTotals& t = by_name_[s.name];
        t.count += 1;
        t.total_us += us;
        t.self_us += us - child_us[i];
      }
    }
  }

  SpanTotals Get(const std::string& name) const {
    auto it = by_name_.find(name);
    return it == by_name_.end() ? SpanTotals{} : it->second;
  }

 private:
  std::map<std::string, SpanTotals> by_name_;
};

/// Writes every span as TSV (thread, index, parent, request, name, start,
/// end in ns) for offline analysis.
void WriteSpans(const Tracer& tracer, const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::printf("# cannot write spans to %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "thread\tindex\tparent\trequest\tname\tstart_ns\tend_ns\n");
  int thread = 0;
  for (const Tracer::Buffer& b : tracer.buffers()) {
    for (size_t i = 0; i < b.spans.size(); ++i) {
      const Span& s = b.spans[i];
      std::fprintf(f, "%d\t%zu\t%d\t%lld\t%s\t%lld\t%lld\n", thread, i,
                   s.parent, static_cast<long long>(s.request), s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    ++thread;
  }
  std::fclose(f);
  std::printf("# spans written to %s\n", path.c_str());
}

/// Stage-hook names reported by MatchingService, in pipeline order.
constexpr const char* kStages[] = {"probe", "prefilter", "match", "compensate",
                                   "cost-annotate"};

void StageToSpan(const char* stage, double seconds) {
  const Clock::time_point end = Clock::now();
  g_tracer.Complete(stage,
                    end - std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds)),
                    end);
}

/// SubstituteSource decorator: times the view-matching rule (one call per
/// memo group) while tracing is on. For a sharded source it also counts
/// the shards each call routes to. The request id comes from the
/// context's per-query seed, which the benchmark sets to the request id.
class TimedSource : public SubstituteSource {
 public:
  explicit TimedSource(SubstituteSource* inner,
                       const ShardedCatalogService* sharded = nullptr)
      : inner_(inner), sharded_(sharded) {}

  std::vector<Substitute> FindSubstitutes(const SpjgQuery& query,
                                          QueryContext& ctx) override {
    invocations_.fetch_add(1, std::memory_order_relaxed);
    if (!g_tracer.on()) return inner_->FindSubstitutes(query, ctx);
    traced_invocations_.fetch_add(1, std::memory_order_relaxed);
    if (sharded_ != nullptr) {
      routed_.fetch_add(
          static_cast<int64_t>(sharded_->RouteShards(query).size()),
          std::memory_order_relaxed);
    }
    const int32_t span = g_tracer.Begin(
        "vm.rule", static_cast<int64_t>(ctx.rng_seed()), Clock::now());
    std::vector<Substitute> out = inner_->FindSubstitutes(query, ctx);
    g_tracer.End(span, Clock::now());
    return out;
  }
  std::optional<UnionSubstitute> FindUnionSubstitute(
      const SpjgQuery& query, QueryContext& ctx) override {
    return inner_->FindUnionSubstitute(query, ctx);
  }
  const ViewDefinition& ResolveView(ViewId id) const override {
    return inner_->ResolveView(id);
  }

  int64_t invocations() const { return invocations_.load(); }
  int64_t traced_invocations() const { return traced_invocations_.load(); }
  int64_t routed() const { return routed_.load(); }

 private:
  SubstituteSource* inner_;
  const ShardedCatalogService* sharded_;
  std::atomic<int64_t> invocations_{0};
  std::atomic<int64_t> traced_invocations_{0};
  std::atomic<int64_t> routed_{0};
};

// --------------------------------------------------------------- report

template <size_t N>
bool Declared(const MetricDef (&table)[N], const std::string& name) {
  for (const MetricDef& m : table) {
    if (name == m.name) return true;
  }
  return false;
}

/// Everything one run prints: operation counts, checks and metrics.
struct Report {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, double> values;

  /// One correctness check; a failed check counts as a failed operation.
  void Check(bool ok, const std::string& what) {
    if (ok) return;
    ++failed;
    std::printf("# CHECK FAILED: %s\n", what.c_str());
  }
  void Set(const std::string& name, double value) { values[name] = value; }

  /// Prints the result line: every metric of the run's table, in order.
  template <size_t N>
  void Print(const MetricDef (&table)[N], bool zero_if_missing) {
    std::string json;
    std::string missing;
    for (const MetricDef& m : table) {
      auto it = values.find(m.name);
      double value = 0;
      if (it != values.end()) {
        value = it->second;
      } else if (zero_if_missing) {
        missing += std::string(" ") + m.name;
      } else {
        Check(false, std::string("metric ") + m.name + " not measured");
      }
      char text[64];
      std::snprintf(text, sizeof(text), "%.10g", value);
      json += std::string(json.empty() ? "\"" : ", \"") + m.name +
              "\": {\"value\": " + text + ", \"unit\": \"" + m.unit + "\"}";
    }
    for (const auto& [name, value] : values) {
      Check(Declared(kEndToEnd, name) || Declared(kPerLayer, name),
            "metric " + name + " is not declared");
    }
    if (!missing.empty()) {
      std::printf("# not exercised by this workload (reported as 0):%s\n",
                  missing.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {%s}}\n",
                failed == 0 ? "true" : "false",
                static_cast<long long>(attempted),
                static_cast<long long>(failed), json.c_str());
  }
};

// ---------------------------------------------------------------- inputs

/// The seeded §5 inputs: views from one generator stream, queries from
/// another (the harness recipe of bench/harness.h), extra views for
/// registrations during a run continue the view stream.
struct Inputs {
  Catalog catalog;
  tpch::Schema schema;
  std::vector<SpjgQuery> views;
  std::vector<SpjgQuery> extra_views;
  std::vector<SpjgQuery> queries;
  uint64_t seed = 1;

  Inputs(uint64_t s, int num_views, int num_extra)
      : schema(tpch::BuildSchema(&catalog, 0.5)), seed(s) {
    tpch::WorkloadGenerator view_gen(&catalog, seed);
    for (int i = 0; i < num_views; ++i) views.push_back(view_gen.GenerateView());
    for (int i = 0; i < num_extra; ++i) {
      extra_views.push_back(view_gen.GenerateView());
    }
    tpch::WorkloadGenerator query_gen(&catalog, seed + 77777);
    for (int i = 0; i < kQueries; ++i) {
      queries.push_back(query_gen.GenerateQuery());
    }
  }

  tpch::WorkloadGenerator IndexGenerator() const {
    return tpch::WorkloadGenerator(&catalog, seed + 4242);
  }
};

MatchingService::Options ServiceOptions() {
  MatchingService::Options opts;
  opts.use_filter_tree = true;
  opts.compile_match_programs = true;
  return opts;
}

/// Per-call registration latencies plus the allocations the calls made.
struct Registrations {
  std::vector<double> us;
  int64_t alloc_count = 0;
  int64_t calls = 0;

  void Time(Report* rep, const std::function<bool()>& add) {
    const AllocTally a0 = ThreadAllocTally();
    const Clock::time_point t0 = Clock::now();
    const int32_t span =
        g_tracer.on() ? g_tracer.Begin("addview", calls, t0) : -1;
    const bool ok = add();
    const Clock::time_point t1 = Clock::now();
    if (span >= 0) g_tracer.End(span, t1);
    alloc_count += ThreadAllocTally().count - a0.count;
    us.push_back(SecondsBetween(t0, t1) * 1e6);
    ++calls;
    ++rep->attempted;
    rep->Check(ok, "view registration failed");
  }

  void AddLayerMetrics(Report* rep) const {
    rep->Set("registration.addview_us.p50", Median(us));
    rep->Set("registration.addview_us.p99", Quantile(us, 0.99));
    rep->Set("alloc.count_per_addview",
             Ratio(static_cast<double>(alloc_count),
                   static_cast<double>(calls)));
  }
};

/// Set-up repeats. Each repeat's time runs from inputs in hand to ready to
/// serve warm: the set-up itself plus the first, cold pass of the queries
/// over the fresh service, so that a cost paid once (lazy work on the
/// first probe, warming caches) shows in setup_s. `live_bytes` is what the
/// last set-up left allocated, without its cold pass.
struct Setup {
  std::vector<double> seconds;
  std::vector<double> cold_pass_s;
  double live_bytes = 0;

  /// Adds the cold pass that followed the latest set-up.
  void AddColdPass(double s) {
    seconds.back() += s;
    cold_pass_s.push_back(s);
  }

  void Print() const {
    std::printf("# setup_s repeats (of which the cold pass):");
    for (size_t i = 0; i < seconds.size() && i < cold_pass_s.size(); ++i) {
      std::printf(" %.4f (%.4f)", seconds[i], cold_pass_s[i]);
    }
    std::printf("\n");
  }
};

/// Brackets one set-up repeat: counts allocations (traced runs) and
/// records spans while it runs.
class SetupTimer {
 public:
  SetupTimer(bool trace, Setup* setup) : setup_(setup) {
    SetAllocCounting(trace);
    g_tracer.enabled.store(trace);
    a0_ = ThreadAllocTally();
    t0_ = Clock::now();
  }
  void Stop() {
    setup_->seconds.push_back(SecondsBetween(t0_, Clock::now()));
    g_tracer.enabled.store(false);
    const AllocTally a1 = ThreadAllocTally();
    SetAllocCounting(false);
    setup_->live_bytes = static_cast<double>((a1.bytes - a0_.bytes) -
                                             (a1.freed - a0_.freed));
  }
  Clock::time_point start() const { return t0_; }

 private:
  Setup* setup_;
  AllocTally a0_;
  Clock::time_point t0_;
};

// ---------------------------------------------------------- closed loop

/// One pass of the query set through Optimize.
struct Pass {
  bool traced = false;
  bool cold = false;  // the first pass after a set-up
  std::vector<double> latency_us;  // per query, in query order
  double busy_s = 0;
  uint64_t digest = kDigestSeed;
  OptimizerMetrics totals;
  int64_t plans_using_views = 0;
  int64_t alloc_count = 0;
  int64_t alloc_bytes = 0;
};

Pass RunPass(Optimizer& optimizer, const Inputs& in, bool traced,
             Report* rep) {
  Pass pass;
  pass.traced = traced;
  pass.latency_us.reserve(in.queries.size());
  g_tracer.enabled.store(traced);
  SetAllocCounting(traced);
  for (size_t i = 0; i < in.queries.size(); ++i) {
    QueryContext ctx;
    ctx.set_rng_seed(i);
    if (traced) ctx.set_stage_hook(StageToSpan);
    const AllocTally a0 = ThreadAllocTally();
    const Clock::time_point t0 = Clock::now();
    const int32_t span =
        traced ? g_tracer.Begin("optimize", static_cast<int64_t>(i), t0) : -1;
    OptimizationResult r = optimizer.Optimize(in.queries[i], ctx);
    const Clock::time_point t1 = Clock::now();
    if (traced) g_tracer.End(span, t1);
    const AllocTally a1 = ThreadAllocTally();
    pass.alloc_count += a1.count - a0.count;
    pass.alloc_bytes += a1.bytes - a0.bytes;
    const double us = SecondsBetween(t0, t1) * 1e6;
    pass.latency_us.push_back(us);
    pass.busy_s += us / 1e6;
    ++rep->attempted;
    rep->Check(r.plan != nullptr && r.degradation == DegradationReason::kNone &&
                   r.metrics.view_matching_failures == 0,
               "query " + std::to_string(i) + " not fully optimized");
    pass.digest = FoldPlan(pass.digest, in.catalog, r);
    pass.totals.view_matching_invocations +=
        r.metrics.view_matching_invocations;
    pass.totals.substitutes_produced += r.metrics.substitutes_produced;
    pass.totals.groups_created += r.metrics.groups_created;
    pass.totals.expressions_generated += r.metrics.expressions_generated;
    if (r.uses_view) ++pass.plans_using_views;
  }
  g_tracer.enabled.store(false);
  SetAllocCounting(false);
  return pass;
}

/// Each query's fastest latency over the warm passes with the given
/// tracing.
std::vector<double> BestLatencies(const std::vector<Pass>& passes,
                                  bool traced) {
  std::vector<const std::vector<double>*> rows;
  for (const Pass& p : passes) {
    if (p.traced == traced && !p.cold) rows.push_back(&p.latency_us);
  }
  return BestOf(rows);
}

/// Per-layer metrics of the optimizer and the view-matching rule from
/// closed-loop passes: counts from `counted` (an untraced pass whose
/// matching-stats delta is `stats`), times from the traced passes in
/// `passes` and their spans in `spans`.
void AddOptimizerLayers(const std::vector<Pass>& passes, const Pass& counted,
                        const MatchingStats& stats, const SpanSummary& spans,
                        Report* rep) {
  const SpanTotals opt = spans.Get("optimize");
  const SpanTotals rule = spans.Get("vm.rule");
  std::vector<double> traced_latency;
  int64_t alloc_count = 0, alloc_bytes = 0;
  for (const Pass& p : passes) {
    if (!p.traced) continue;
    traced_latency.insert(traced_latency.end(), p.latency_us.begin(),
                          p.latency_us.end());
    alloc_count += p.alloc_count;
    alloc_bytes += p.alloc_bytes;
  }
  const double tq = static_cast<double>(traced_latency.size());
  const double inv = static_cast<double>(rule.count);
  const double nq = static_cast<double>(counted.latency_us.size());

  std::printf("# per-layer breakdown over %.0f traced queries "
              "(us per query, share of Optimize):\n", tq);
  auto row = [&](const std::string& name, double us) {
    std::printf("#   %-26s %10.2f %6.1f%%\n", name.c_str(), us / tq,
                100.0 * Ratio(us, opt.total_us));
  };
  row("optimize (end to end)", opt.total_us);
  row("  optimizer self", opt.self_us);
  row("  vm.rule", rule.total_us);
  double stages_us = 0;
  for (const char* stage : kStages) {
    const double us = spans.Get(stage).total_us;
    stages_us += us;
    row(std::string("    ") + stage, us);
  }
  row("    unattributed", rule.self_us);
  std::printf("#   residual (optimize - self - stages - unattributed): "
              "%.3f us/query\n",
              (opt.total_us - opt.self_us - stages_us - rule.self_us) / tq);

  // Per rule invocation (one per memo group), which on a sharded source
  // spans several shard probes.
  const double invocations =
      static_cast<double>(counted.totals.view_matching_invocations);
  const double full_tests = static_cast<double>(stats.full_tests);
  rep->Set("optimizer.optimize_us.p50", Median(traced_latency));
  rep->Set("optimizer.self_us_per_query", opt.self_us / tq);
  rep->Set("optimizer.groups_per_query",
           static_cast<double>(counted.totals.groups_created) / nq);
  rep->Set("optimizer.exprs_per_query",
           static_cast<double>(counted.totals.expressions_generated) / nq);
  rep->Set("optimizer.invocations_per_query",
           static_cast<double>(counted.totals.view_matching_invocations) / nq);
  rep->Set("optimizer.substitutes_per_query",
           static_cast<double>(counted.totals.substitutes_produced) / nq);
  rep->Set("optimizer.plans_using_views",
           static_cast<double>(counted.plans_using_views));
  rep->Set("vm.rule_us_per_invocation", rule.total_us / inv);
  rep->Set("vm.rule_share", Ratio(rule.total_us, opt.total_us));
  for (const char* stage : kStages) {
    std::string name = std::string("vm.stage.") + stage + "_us";
    std::replace(name.begin(), name.end(), '-', '_');
    rep->Set(name, spans.Get(stage).total_us / inv);
  }
  rep->Set("vm.unattributed_us", rule.self_us / inv);
  rep->Set("vm.candidates_per_invocation",
           static_cast<double>(stats.candidates) / invocations);
  rep->Set("vm.full_tests_per_invocation", full_tests / invocations);
  rep->Set("vm.substitutes_per_invocation",
           static_cast<double>(stats.substitutes) / invocations);
  rep->Set("vm.useful_ratio",
           Ratio(static_cast<double>(stats.substitutes), full_tests));
  rep->Set("match.compiled_hits", static_cast<double>(stats.compiled_hits));
  rep->Set("match.fallbacks", static_cast<double>(stats.compiled_fallbacks));
  rep->Set("match.fallback_ratio",
           Ratio(static_cast<double>(stats.compiled_fallbacks), full_tests));
  rep->Set("alloc.count_per_query", static_cast<double>(alloc_count) / tq);
  rep->Set("alloc.bytes_per_query", static_cast<double>(alloc_bytes) / tq);
}

/// The matching-stats counters one pass moved.
MatchingStats StatsDelta(const MatchingStats& a, const MatchingStats& b) {
  MatchingStats d;
  d.invocations = b.invocations - a.invocations;
  d.candidates = b.candidates - a.candidates;
  d.full_tests = b.full_tests - a.full_tests;
  d.substitutes = b.substitutes - a.substitutes;
  d.compiled_hits = b.compiled_hits - a.compiled_hits;
  d.compiled_fallbacks = b.compiled_fallbacks - a.compiled_fallbacks;
  return d;
}

void CheckTiers(const MatchingStats& s, Report* rep) {
  rep->Check(s.compiled_hits + s.compiled_fallbacks == s.full_tests,
             "compiled_hits + compiled_fallbacks != full_tests");
}

/// The one-thread closed loop of fig3_1k and views_10k. The measured time
/// is split into segments, one after each set-up repeat, so that the
/// repeats of set-up and of every query are spread over the whole run
/// (README.md: host noise). A segment's first pass is cold and belongs to
/// set-up; throughput and latency come from each query's fastest warm
/// untraced pass. In a traced run traced and untraced passes alternate.
class ClosedLoop {
 public:
  ClosedLoop(const Inputs& in, bool trace, Report* rep)
      : in_(in), trace_(trace), rep_(rep) {}

  /// Runs whole passes over `service` for `seconds` (at least three: the
  /// cold one and two warm ones) and returns the cold pass's time.
  double Run(MatchingService& service, double seconds) {
    TimedSource timed(&service);
    SubstituteSource* source = trace_
                                   ? static_cast<SubstituteSource*>(&timed)
                                   : static_cast<SubstituteSource*>(&service);
    Optimizer optimizer(&in_.catalog, source);
    if (passes_.empty()) mark_ = SpanSummary::Mark(g_tracer);
    const size_t cold = passes_.size();
    const Clock::time_point start = Clock::now();
    for (int n = 0; n < 3 || SecondsBetween(start, Clock::now()) < seconds;
         ++n) {
      const bool traced = trace_ && n % 2 == 1;
      const MatchingStats s0 = service.stats();
      passes_.push_back(RunPass(optimizer, in_, traced, rep_));
      passes_.back().cold = n == 0;
      // The first pass's counters are the per-pass counts (deterministic
      // for a seed).
      if (passes_.size() == 1) counted_ = StatsDelta(s0, service.stats());
    }
    wall_s_ += SecondsBetween(start, Clock::now());
    CheckTiers(service.stats(), rep_);
    retired_max_ = std::max(retired_max_, service.retired_snapshots());
    return passes_[cold].busy_s;
  }

  /// Checks the plans and sets the loop's metrics.
  void Finish() {
    const Pass& first = passes_.front();
    for (const Pass& p : passes_) {
      rep_->Check(p.digest == first.digest,
                  std::string(p.traced ? "traced" : "untraced") +
                      " pass chose different plans than the first pass");
    }
    std::vector<double> pass_qps, cold_qps;
    double busy_all = 0;
    for (const Pass& p : passes_) {
      busy_all += p.busy_s;
      if (p.cold) {
        cold_qps.push_back(kQueries / p.busy_s);
      } else if (!p.traced) {
        pass_qps.push_back(kQueries / p.busy_s);
      }
    }
    const std::vector<double> best = BestLatencies(passes_, false);
    const double best_qps = kQueries / (Sum(best) / 1e6);
    std::printf("# plan digest %016llx over %d queries, %lld use views\n",
                static_cast<unsigned long long>(first.digest), kQueries,
                static_cast<long long>(first.plans_using_views));
    std::printf("# %zu passes in %.2f s (harness outside Optimize: %.1f%%)\n",
                passes_.size(), wall_s_, 100.0 * (1.0 - busy_all / wall_s_));
    PrintSpread("cold first pass qps (in setup_s)", cold_qps, "1/s");
    PrintSpread("noise: untraced warm pass qps", pass_qps, "1/s");
    std::printf("# noise: best-of-passes qps %.1f is %.1f%% above the median "
                "pass\n",
                best_qps, 100.0 * (best_qps / Median(pass_qps) - 1.0));
    std::printf("# latency over %zu queries, each its fastest of %zu warm "
                "passes; tail = p90 (100 queries beyond it)\n",
                best.size(), pass_qps.size());

    rep_->Set("throughput_qps", best_qps);
    rep_->Set("latency_p50_us", Median(best));
    // p90, not p99: the p99 of 1,000 queries is set by the seed's ten
    // heaviest queries and moves by a third from seed to seed.
    rep_->Set("latency_tail_us", Quantile(best, 0.9));
    if (!trace_) return;

    AddOptimizerLayers(passes_, first, counted_,
                       SpanSummary(g_tracer, mark_), rep_);
    rep_->Set("snapshot.retired_max", static_cast<double>(retired_max_));
    rep_->Set("trace.overhead_frac",
              Sum(BestLatencies(passes_, true)) / Sum(best) - 1.0);
  }

 private:
  const Inputs& in_;
  bool trace_;
  Report* rep_;
  std::vector<Pass> passes_;
  MatchingStats counted_;
  std::vector<size_t> mark_;
  double wall_s_ = 0;
  int64_t retired_max_ = 0;
};

// ----------------------------------------------------------- fig3_1k

void RunFig3(const Inputs& in, double seconds, bool trace, Report* rep) {
  Setup setup;
  Registrations reg;
  ClosedLoop loop(in, trace, rep);
  const int repeats = trace ? 1 : kSetupRepeats;
  for (int r = 0; r < repeats; ++r) {
    SetupTimer timer(trace, &setup);
    auto service =
        std::make_unique<MatchingService>(&in.catalog, ServiceOptions());
    tpch::WorkloadGenerator index_gen = in.IndexGenerator();
    for (int i = 0; i < kFig3Views; ++i) {
      reg.Time(rep, [&] {
        ViewDefinition* v = service->AddView("v" + std::to_string(i),
                                             in.views[static_cast<size_t>(i)]);
        if (v == nullptr) return false;
        index_gen.AttachDefaultIndexes(v);
        return true;
      });
    }
    timer.Stop();
    setup.AddColdPass(loop.Run(*service, seconds / repeats));
  }
  setup.Print();
  rep->Set("setup_s", Median(setup.seconds));
  loop.Finish();
  rep->Set("peak_rss_mb", PeakRssMb());
  if (!trace) return;
  reg.AddLayerMetrics(rep);
  rep->Set("registration.bytes_per_view", setup.live_bytes / kFig3Views);
}

// ---------------------------------------------------------- views_10k

void RunViews10k(const Inputs& in, const std::string& work_dir,
                 double seconds, bool trace, Report* rep) {
  // Untimed preparation: the durable snapshot the set-up recovers from.
  const std::string dir = work_dir + "/views_10k_catalog";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {
    std::vector<PersistedView> images;
    images.reserve(in.views.size());
    for (size_t i = 0; i < in.views.size(); ++i) {
      PersistedView image;
      image.name = "v" + std::to_string(i);
      image.sql = in.views[i].ToSql(in.catalog);
      images.push_back(std::move(image));
    }
    CatalogStore store(dir);
    store.OpenForAppend();
    store.WriteSnapshot(images);
    store.Close();
  }

  double scan_s = 0;
  {
    CatalogStore store(dir);
    const Clock::time_point t0 = Clock::now();
    CatalogStore::RecoveredState scanned = store.Recover();
    scan_s = SecondsBetween(t0, Clock::now());
    rep->Check(scanned.report.views_recovered == kLargeViews,
               "snapshot scan did not return every view");
  }

  // Set-up (timed): recovery into a fresh service. In a traced run, after
  // the passes, a few registrations against the 10,000-view catalog.
  Setup setup;
  Registrations reg;
  ClosedLoop loop(in, trace, rep);
  double recover_s = 0;  // the first set-up's recovery, without cold pass
  const int repeats = trace ? 1 : kSetupRepeats;
  for (int r = 0; r < repeats; ++r) {
    CatalogStore store(dir);  // outlives the service
    SetupTimer timer(trace, &setup);
    const int32_t span =
        trace ? g_tracer.Begin("recover", 0, timer.start()) : -1;
    auto service =
        std::make_unique<MatchingService>(&in.catalog, ServiceOptions());
    RecoveryReport report = service->RecoverFrom(&store);
    tpch::WorkloadGenerator index_gen = in.IndexGenerator();
    ViewCatalog& views = service->mutable_views();
    for (ViewId id = 0; id < views.num_views(); ++id) {
      index_gen.AttachDefaultIndexes(&views.mutable_view(id));
    }
    if (trace) g_tracer.End(span, Clock::now());
    timer.Stop();
    if (r == 0) recover_s = setup.seconds.back();
    ++rep->attempted;
    rep->Check(report.clean() && report.views_recovered == kLargeViews &&
                   views.num_views() == kLargeViews,
               "recovery not clean: " + report.ToJson());
    // Later registrations stay in memory: no WAL fsync in the timed path.
    store.Close();
    setup.AddColdPass(loop.Run(*service, seconds / repeats));
    if (!trace) continue;
    SetAllocCounting(true);
    for (int i = 0; i < kLargeAddViews; ++i) {
      reg.Time(rep, [&] {
        return service->AddView("x" + std::to_string(i),
                                in.extra_views[static_cast<size_t>(i)]) !=
               nullptr;
      });
    }
    SetAllocCounting(false);
  }
  setup.Print();
  std::printf("# snapshot scan alone: %.4f s\n", scan_s);
  rep->Set("setup_s", Median(setup.seconds));
  loop.Finish();
  rep->Set("peak_rss_mb", PeakRssMb());
  std::filesystem::remove_all(dir);
  if (!trace) return;
  rep->Set("recovery.scan_s", scan_s);
  rep->Set("recovery.rebuild_s", recover_s - scan_s);
  rep->Set("registration.bytes_per_view", setup.live_bytes / kLargeViews);
  reg.AddLayerMetrics(rep);
}

// -------------------------------------------------------- serve_churn

/// One open-loop request as the sender saw it.
struct Request {
  std::shared_ptr<ServeTicket> ticket;
  int64_t id = 0;
  int slice = -1;  // -1 = warm-up
  Clock::time_point due, submit_start, submit_end;
};

struct Served {
  int slice;
  double latency_us;  // due -> observed completion
  double late_us;     // due -> submit start
  double submit_us;
  double queue_us;
  double service_us;  // latency minus queue wait
};

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

int64_t RetiredSnapshots(ShardedCatalogService& sharded) {
  int64_t retired = 0;
  for (int s = 0; s < sharded.num_shards(); ++s) {
    retired += sharded.shard_service(s).retired_snapshots();
  }
  return retired;
}

/// One serving stack: the sharded catalog, the span decorator over it and
/// the serving service. Members are destroyed in reverse order, so the
/// workers stop before their sources go.
struct ServeStack {
  std::unique_ptr<ShardedCatalogService> sharded;
  std::unique_ptr<TimedSource> timed;
  std::unique_ptr<ServingService> service;
};

/// serve_churn. As in the closed loops, the measured time is split into
/// segments, each on the stack of a fresh set-up, so that the set-up
/// repeats and the 1-s slices are spread over the whole run (README.md:
/// host noise); the latency figures pool the slices of all segments. A
/// traced run has one segment, whose slices alternate untraced and traced.
class ServeChurn {
 public:
  ServeChurn(const Inputs& in, bool trace, Report* rep)
      : in_(in), trace_(trace), rep_(rep) {}

  /// Set-up: shard load through AddView and service start, then the cold
  /// pass of the queries straight through the sharded catalog.
  void SetUp() {
    stack_.reset();  // stops the previous stack's workers first
    stack_ = std::make_unique<ServeStack>();
    ServeStack& s = *stack_;
    SetupTimer timer(trace_, &setup_);
    ShardedCatalogOptions copts;
    copts.num_shards = kServeShards;
    copts.service = ServiceOptions();
    s.sharded = std::make_unique<ShardedCatalogService>(&in_.catalog, copts);
    for (int i = 0; i < kServeViews; ++i) {
      setup_reg_.Time(rep_, [&] {
        return s.sharded->AddView("v" + std::to_string(i),
                                  in_.views[static_cast<size_t>(i)]) !=
               kInvalidViewId;
      });
    }
    s.timed = std::make_unique<TimedSource>(s.sharded.get(), s.sharded.get());
    ServingOptions sopts;
    sopts.num_workers = kServeWorkers;
    sopts.queue_capacity = kServeQueueCapacity;
    SubstituteSource* source =
        trace_ ? static_cast<SubstituteSource*>(s.timed.get())
               : static_cast<SubstituteSource*>(s.sharded.get());
    s.service = std::make_unique<ServingService>(&in_.catalog, source, sopts);
    timer.Stop();
    setup_.AddColdPass(ColdPass());
  }

  /// One segment's open loop on the current stack: a warm-up, then
  /// `slices` measured slices, with the writer's registrations spread
  /// evenly over the measured slices.
  void OpenLoop(int slices) {
    ShardedCatalogService* sharded = stack_->sharded.get();
    TimedSource* timed = stack_->timed.get();
    ServingService* service = stack_->service.get();
    const int first_slice = static_cast<int>(lat_.size());
    lat_.resize(lat_.size() + static_cast<size_t>(slices));
    const double measured_s = slices * kServeSliceSeconds;
    const int64_t total = static_cast<int64_t>(
        (kServeWarmSeconds + measured_s) * kServeRateQps);
    const MatchingStats mstats0 = sharded->stats();
    if (first_slice == 0) mark_ = SpanSummary::Mark(g_tracer);
    const Clock::time_point start =
        Clock::now() + std::chrono::milliseconds(1);
    auto at = [&](double s) {
      return start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(s));
    };
    auto due = [&](int64_t i) {
      return at(static_cast<double>(i) / kServeRateQps);
    };
    auto slice_of = [&](int64_t i) {
      const double t =
          static_cast<double>(i) / kServeRateQps - kServeWarmSeconds;
      return t < 0 ? -1
                   : first_slice + static_cast<int>(t / kServeSliceSeconds);
    };

    // Writer: one registration in the middle of each equal share of the
    // measured time.
    Report writer_rep;
    SetAllocCounting(trace_);
    std::thread writer([&] {
      for (int k = 0; k < kServeWriterViews; ++k) {
        std::this_thread::sleep_until(
            at(kServeWarmSeconds + (k + 0.5) * measured_s / kServeWriterViews));
        writer_reg_.Time(&writer_rep, [&] {
          return sharded->AddView("w" + std::to_string(k),
                                  in_.extra_views[static_cast<size_t>(k)]) !=
                 kInvalidViewId;
        });
      }
    });

    // Sender (this thread): submits on schedule and, between sends, polls
    // its outstanding tickets so each completion is stamped on its own,
    // not behind an earlier ticket.
    std::vector<Request> outstanding;
    served_.reserve(served_.size() + static_cast<size_t>(total));
    int64_t next = 0;
    int64_t measured = 0;
    int current_slice = -2;
    while (next < total || !outstanding.empty()) {
      const Clock::time_point now = Clock::now();
      if (next < total && now >= due(next)) {
        const int slice = slice_of(next);
        if (slice != current_slice) {
          current_slice = slice;
          if (trace_) {
            // Alternate untraced and traced slices; retired snapshots are
            // sampled at each boundary.
            g_tracer.enabled.store(slice >= 0 && slice % 2 == 1);
            retired_max_ = std::max(retired_max_, RetiredSnapshots(*sharded));
          }
        }
        Request req;
        req.id = next;
        req.slice = slice;
        const bool traced = g_tracer.on();
        req.due = due(next);
        ServeRequest sreq;
        sreq.query =
            in_.queries[static_cast<size_t>(next) % in_.queries.size()];
        sreq.tenant = "bench";
        sreq.rng_seed = static_cast<uint64_t>(next);
        req.submit_start = now;
        const int32_t span =
            traced ? g_tracer.Begin("serve.submit", next, now) : -1;
        req.ticket = service->Submit(std::move(sreq));
        req.submit_end = Clock::now();
        if (traced) g_tracer.End(span, req.submit_end);
        outstanding.push_back(std::move(req));
        ++next;
        continue;
      }
      for (size_t j = 0; j < outstanding.size();) {
        if (!outstanding[j].ticket->done()) {
          ++j;
          continue;
        }
        const Clock::time_point done = Clock::now();
        Request& q = outstanding[j];
        const ServeResult result = q.ticket->Wait();
        ++rep_->attempted;
        rep_->Check(result.outcome == AdmissionOutcome::kAdmitted &&
                        result.error_kind == ServeErrorKind::kNone &&
                        result.has_plan,
                    std::string("request ") + std::to_string(q.id) + " " +
                        AdmissionOutcomeName(result.outcome) + " " +
                        result.error);
        const double latency = SecondsBetween(q.due, done) * 1e6;
        const double queue_us = result.queue_seconds * 1e6;
        if (q.slice >= 0) {
          lat_[static_cast<size_t>(q.slice)].push_back(latency);
          ++measured;
        }
        served_.push_back({q.slice, latency,
                           SecondsBetween(q.due, q.submit_start) * 1e6,
                           SecondsBetween(q.submit_start, q.submit_end) * 1e6,
                           queue_us, latency - queue_us});
        outstanding[j] = std::move(outstanding.back());
        outstanding.pop_back();
      }
      CpuRelax();
    }
    const Clock::time_point end = Clock::now();
    g_tracer.enabled.store(false);
    writer.join();
    SetAllocCounting(false);
    service->Drain();
    rep_->attempted += writer_rep.attempted;
    rep_->failed += writer_rep.failed;
    measured_requests_ += measured;
    measured_s_ += SecondsBetween(at(kServeWarmSeconds), end);

    // Serve books and shard invariants of this stack.
    const ServingStats stats = service->stats();
    int64_t outcomes = 0, completions = 0;
    for (int64_t n : stats.outcomes) outcomes += n;
    for (int64_t n : stats.completions) completions += n;
    rep_->Check(stats.submitted == total, "submitted != requests sent");
    rep_->Check(stats.submitted == outcomes, "submitted != sum of outcomes");
    rep_->Check(completions == stats.outcomes[0], "completions != admissions");
    rep_->Check(stats.duplicate_publishes == 0, "duplicate publishes");
    rep_->Check(stats.tier_escalations == 0,
                "serving tier escalated " +
                    std::to_string(stats.tier_escalations) + " times");
    const MatchingStats mstats = sharded->stats();
    CheckTiers(mstats, rep_);
    shed_ += stats.submitted - stats.outcomes[0];
    duplicates_ += stats.duplicate_publishes;
    escalations_ += stats.tier_escalations;
    max_queue_depth_ = std::max(max_queue_depth_, stats.max_queue_depth);
    candidates_ += mstats.candidates - mstats0.candidates;
    invocations_ += timed->invocations();
    traced_invocations_ += timed->traced_invocations();
    routed_ += timed->routed();
    std::printf("# segment %d: %.1f s warm-up, %d slices of %.1f s, %d views "
                "registered, ran %.2f s\n",
                first_slice / slices, kServeWarmSeconds, slices,
                kServeSliceSeconds, kServeWriterViews,
                SecondsBetween(start, end));
  }

  /// Sets the metrics from the pooled slices of all segments.
  void Finish() {
    setup_.Print();
    rep_->Set("setup_s", Median(setup_.seconds));
    std::vector<double> late, submit, queue, svc;
    for (const Served& s : served_) {
      if (s.slice < 0) continue;
      late.push_back(s.late_us);
      submit.push_back(s.submit_us);
      queue.push_back(s.queue_us);
      svc.push_back(s.service_us);
    }
    std::vector<double> p50, p90, p50_traced, p50_untraced;
    for (size_t s = 0; s < lat_.size(); ++s) {
      p50.push_back(Median(lat_[s]));
      p90.push_back(Quantile(lat_[s], 0.9));
      (trace_ && s % 2 == 1 ? p50_traced : p50_untraced).push_back(p50.back());
    }
    std::printf("# offered %.0f qps open loop; %zu slices pooled, %zu "
                "requests each\n",
                kServeRateQps, lat_.size(), lat_[0].size());
    std::printf("# noise: sender late p99 %.1f us, max %.1f us; tier "
                "escalations %lld; max queue depth %lld\n",
                Quantile(late, 0.99), Quantile(late, 1.0),
                static_cast<long long>(escalations_),
                static_cast<long long>(max_queue_depth_));
    PrintSpread("noise: slice p50", p50, "us");
    PrintSpread("noise: slice p90", p90, "us");

    if (!trace_) {
      // Below capacity this is the offered rate; a growing backlog pulls
      // the last completion later and the figure below it.
      rep_->Set("throughput_qps",
                static_cast<double>(measured_requests_) / measured_s_);
      // Lower quartile over slices: a host stall disturbs whole slices, and
      // on this kind of host up to half of them (README.md: host noise).
      rep_->Set("latency_p50_us", Quantile(p50, 0.25));
      rep_->Set("latency_tail_us", Quantile(p90, 0.25));
      rep_->Set("peak_rss_mb", PeakRssMb());
      return;
    }

    const SpanSummary spans(g_tracer, mark_);
    const SpanTotals rule = spans.Get("vm.rule");
    const double traced_inv = static_cast<double>(traced_invocations_);
    rep_->Set("serve.submit_us.p50", Median(submit));
    rep_->Set("serve.queue_wait_us.p50", Median(queue));
    rep_->Set("serve.queue_wait_us.p90", Quantile(queue, 0.9));
    rep_->Set("serve.service_us.p50", Median(svc));
    rep_->Set("serve.service_us.p90", Quantile(svc, 0.9));
    rep_->Set("serve.shed", static_cast<double>(shed_));
    rep_->Set("serve.tier_escalations", static_cast<double>(escalations_));
    rep_->Set("serve.duplicate_publishes", static_cast<double>(duplicates_));
    rep_->Set("serve.sender_late_us.p99", Quantile(late, 0.99));
    rep_->Set("shard.rule_us_per_invocation", rule.total_us / traced_inv);
    rep_->Set("shard.routed_per_invocation",
              static_cast<double>(routed_) / traced_inv);
    rep_->Set("shard.candidates_per_invocation",
              Ratio(static_cast<double>(candidates_),
                    static_cast<double>(invocations_)));
    rep_->Set("shard.addview_us.p50", Median(writer_reg_.us));
    rep_->Set("shard.addview_us.p99", Quantile(writer_reg_.us, 0.99));
    rep_->Set("snapshot.retired_max", static_cast<double>(retired_max_));
    rep_->Set("registration.bytes_per_view", setup_.live_bytes / kServeViews);
    setup_reg_.AddLayerMetrics(rep_);
    rep_->Set("alloc.count_per_addview",
              Ratio(static_cast<double>(writer_reg_.alloc_count),
                    static_cast<double>(writer_reg_.calls)));
    rep_->Set("trace.overhead_frac",
              Median(p50_traced) / Median(p50_untraced) - 1.0);
  }

 private:
  /// The cold pass over the freshly loaded catalog, before any churn;
  /// returns its time. Every segment must choose the first segment's
  /// plans. A traced run follows it with a traced pass for the optimizer
  /// and view-matching layers (the workers' contexts take no stage hook).
  double ColdPass() {
    ShardedCatalogService* sharded = stack_->sharded.get();
    Optimizer optimizer(&in_.catalog, sharded);
    const MatchingStats s0 = sharded->stats();
    const Pass cold = RunPass(optimizer, in_, false, rep_);
    const MatchingStats s1 = sharded->stats();
    CheckTiers(s1, rep_);
    if (!digest_) {
      digest_ = cold.digest;
      std::printf("# plan digest %016llx over %d queries, %lld use views "
                  "(4-shard catalog before churn)\n",
                  static_cast<unsigned long long>(cold.digest), kQueries,
                  static_cast<long long>(cold.plans_using_views));
    }
    rep_->Check(cold.digest == *digest_,
                "segment chose different plans than the first segment");
    if (trace_) {
      TimedSource timed(sharded, sharded);
      Optimizer traced_optimizer(&in_.catalog, &timed);
      const std::vector<size_t> mark = SpanSummary::Mark(g_tracer);
      std::vector<Pass> passes;
      passes.push_back(RunPass(traced_optimizer, in_, true, rep_));
      rep_->Check(passes[0].digest == cold.digest,
                  "traced pass chose different plans than the untraced pass");
      AddOptimizerLayers(passes, cold, StatsDelta(s0, s1),
                         SpanSummary(g_tracer, mark), rep_);
    }
    return cold.busy_s;
  }

  const Inputs& in_;
  bool trace_;
  Report* rep_;
  std::unique_ptr<ServeStack> stack_;
  Setup setup_;
  Registrations setup_reg_;
  Registrations writer_reg_;
  std::optional<uint64_t> digest_;
  std::vector<Served> served_;
  std::vector<std::vector<double>> lat_;  // per measured slice, all segments
  std::vector<size_t> mark_;
  int64_t measured_requests_ = 0;
  double measured_s_ = 0;
  int64_t retired_max_ = 0;
  int64_t shed_ = 0;
  int64_t duplicates_ = 0;
  int64_t escalations_ = 0;
  int64_t max_queue_depth_ = 0;
  int64_t candidates_ = 0;
  int64_t invocations_ = 0;
  int64_t traced_invocations_ = 0;
  int64_t routed_ = 0;
};

void RunServeChurn(const Inputs& in, double seconds, bool trace,
                   Report* rep) {
  const int segments = trace ? 1 : kSetupRepeats;
  const int slices = std::max(
      2, static_cast<int>(std::lround(seconds / segments / kServeSliceSeconds)));
  ServeChurn churn(in, trace, rep);
  for (int s = 0; s < segments; ++s) {
    churn.SetUp();
    churn.OpenLoop(slices);
  }
  churn.Finish();
}

// ------------------------------------------------------------------ main

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 25;
  bool trace = false;
  std::string work_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload fig3_1k|views_10k|serve_churn "
                 "[--seed N] [--seconds S] [--trace 0|1] [--work-dir DIR]\n",
                 argv[0]);
    return 2;
  }
#ifndef MVBENCH_TRACED
  if (args.trace) {
    std::fprintf(stderr, "--trace 1 needs the mvbench_traced binary\n");
    return 2;
  }
#endif
  const Clock::time_point t0 = Clock::now();
  Report rep;
  auto generated = [&] {
    std::printf("# seed %llu, inputs generated in %.2f s\n",
                static_cast<unsigned long long>(args.seed),
                SecondsBetween(t0, Clock::now()));
  };
  if (args.workload == "fig3_1k") {
    Inputs in(args.seed, kFig3Views, 0);
    generated();
    RunFig3(in, args.seconds, args.trace, &rep);
  } else if (args.workload == "views_10k") {
    Inputs in(args.seed, kLargeViews, kLargeAddViews);
    generated();
    RunViews10k(in, args.work_dir, args.seconds, args.trace, &rep);
  } else if (args.workload == "serve_churn") {
    Inputs in(args.seed, kServeViews, kServeWriterViews);
    generated();
    RunServeChurn(in, args.seconds, args.trace, &rep);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (args.trace) {
    WriteSpans(g_tracer, args.work_dir + "/spans-" + args.workload + ".tsv");
    rep.Print(kPerLayer, /*zero_if_missing=*/true);
  } else {
    rep.Print(kEndToEnd, /*zero_if_missing=*/false);
  }
  return rep.failed == 0 ? 0 : 1;
}
