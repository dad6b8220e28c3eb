// Experiment E10 — cost of the observability layer (src/obs):
//   (a) per-primitive costs: a relaxed counter inc (uncontended and 4-way
//       contended), a histogram observe, and an RAII span with the span
//       ring off and on,
//   (b) end-to-end: ingest GM-trace replays through the serving pipeline
//       (SessionManager, 1 worker) and attribute the measured per-op costs
//       to the metric operations the run actually performed (registry
//       value delta).  The instrumentation share of the ingest wall time
//       must stay below the 2% overhead budget (DESIGN.md, Observability).
//   (c) causal tracing on: the same ingest with every period carrying a
//       trace context (span ring enabled, server stages recording child
//       spans, as under `bbmg_served --trace`).  The attributed span cost
//       must stay below a 1% share of the traced ingest wall time.
//   (d) learner phase attribution: the same ingest with the sampling
//       self-profiler at stride 1 (every period timed).  The named phases
//       (enumerate/branch/post_process/history) must attribute
//       >= 90% of the profiled period wall time — an unnamed-time gap
//       means the profiler lost track of where ingest cycles go.
//   (e) E16, perf-counter spans: price one PerfCounterGroup read (the
//       perf_event_open group syscall) and attribute the reads the learner
//       performs per sampled period at the production stride.  Must stay
//       below 2% of the (b) ingest wall time.  Unsupported hardware (CI
//       containers, perf_event_paranoid) reports zero cost and passes.
//   (f) E16, allocation attribution: price the thread-local note_alloc/
//       note_free pair and attribute it to the heap churn the (b) ingest
//       actually performed (the session's VspaceSnapshot alloc counters).
//       Must stay below 2% of the ingest wall time; with
//       -DBBMG_ALLOC_TRACK=OFF the churn reads zero and the gate passes
//       trivially.
// In a -DBBMG_OBS=OFF build the primitives compile to no-ops; the bench
// still runs, reports ~zero costs and "enabled": false, and the budget
// check passes trivially.  Output goes to stdout and BENCH_obs.json.
#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/stopwatch.hpp"
#include "core/learner_metrics.hpp"
#include "obs/alloc_track.hpp"
#include "obs/exposition.hpp"
#include "obs/metrics.hpp"
#include "obs/perf/perf_counters.hpp"
#include "obs/span.hpp"
#include "obs/trace_context.hpp"
#include "serve/session_manager.hpp"

using namespace bbmg;

namespace {

constexpr double kBudgetPct = 2.0;
/// Tighter budget for the causal-tracing path: spans are per-stage, not
/// per-metric-op, so the ceiling is 1% of the traced ingest wall time.
constexpr double kTraceBudgetPct = 1.0;

/// ns per iteration of `body`, amortized over `iters` calls.
template <typename Body>
double time_ns_per_op(std::size_t iters, Body&& body) {
  Stopwatch w;
  for (std::size_t i = 0; i < iters; ++i) body(i);
  return w.elapsed_ms() * 1e6 / static_cast<double>(iters);
}

double contended_counter_ns(obs::Counter& counter, std::size_t threads,
                            std::size_t iters_per_thread) {
  Stopwatch w;
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = 0; i < iters_per_thread; ++i) counter.inc();
    });
  }
  for (auto& t : pool) t.join();
  return w.elapsed_ms() * 1e6 /
         static_cast<double>(threads * iters_per_thread);
}

std::map<std::string, std::uint64_t> value_map(
    const obs::MetricsSnapshot& snap) {
  std::map<std::string, std::uint64_t> m;
  for (const obs::CounterSample& c : snap.counters) m[c.name] = c.value;
  for (const obs::HistogramSample& h : snap.histograms) m[h.name] = h.count;
  return m;
}

/// Metric operations between two snapshots: counter increments plus
/// histogram observes (each observe is ~3 relaxed adds, priced separately).
struct OpDelta {
  std::uint64_t counter_ops = 0;
  std::uint64_t histogram_ops = 0;
};

OpDelta ops_between(const obs::MetricsSnapshot& before,
                    const obs::MetricsSnapshot& after) {
  const auto b = value_map(before);
  OpDelta d;
  // Accumulator counters carry a *quantity* in their value — nanoseconds,
  // heap bytes, allocation counts, hardware events, CPU milliseconds —
  // added with one inc per sampled unit.  Pricing their value deltas as
  // metric ops would bill every profiled nanosecond (or allocated byte) as
  // an increment; each is noise against the real per-event counters.
  static constexpr const char* kQuantitySuffixes[] = {
      "_ns_total",           "_bytes_total",        "_allocs_total",
      "_cycles_total",       "_instructions_total", "_cache_misses_total",
      "_branch_misses_total", "_millis_total",      "_seconds_total",
  };
  const auto is_quantity = [](const std::string& name) {
    for (const char* suffix : kQuantitySuffixes) {
      if (name.find(suffix) != std::string::npos) return true;
    }
    return false;
  };
  for (const obs::CounterSample& c : after.counters) {
    if (is_quantity(c.name)) continue;
    const auto it = b.find(c.name);
    d.counter_ops += c.value - (it == b.end() ? 0 : it->second);
  }
  for (const obs::HistogramSample& h : after.histograms) {
    const auto it = b.find(h.name);
    d.histogram_ops += h.count - (it == b.end() ? 0 : it->second);
  }
  return d;
}

}  // namespace

int main() {
  const bool full = bench::full_scale();
  const std::size_t micro_iters = full ? 50'000'000 : 5'000'000;

  bench::heading("E10: observability overhead (BBMG_OBS=" +
                 std::string(obs::kEnabled ? "ON" : "OFF") + ")");

  // ---- (a) per-primitive micro costs -------------------------------------
  obs::MetricsRegistry bench_registry;
  obs::Counter& counter = bench_registry.counter("bench_counter_total");
  obs::Counter& shared = bench_registry.counter("bench_contended_total");
  obs::Histogram& hist = bench_registry.histogram(
      "bench_latency_us", obs::default_latency_buckets_us());

  const double counter_ns =
      time_ns_per_op(micro_iters, [&](std::size_t) { counter.inc(); });
  const double contended_ns =
      contended_counter_ns(shared, 4, micro_iters / 4);
  const double observe_ns = time_ns_per_op(
      micro_iters, [&](std::size_t i) { hist.observe(i & 1023); });
  obs::SpanRing::instance().set_enabled(false);
  const double span_ns = time_ns_per_op(
      micro_iters / 8, [&](std::size_t) { obs::Span s(&hist, "bench.span"); });
  obs::SpanRing::instance().set_enabled(true);
  const double span_ring_ns = time_ns_per_op(
      micro_iters / 64, [&](std::size_t) { obs::Span s(&hist, "bench.span"); });
  obs::SpanRing::instance().set_enabled(false);
  obs::SpanRing::instance().clear();

  std::printf("counter.inc            %8.2f ns/op\n", counter_ns);
  std::printf("counter.inc contended4 %8.2f ns/op\n", contended_ns);
  std::printf("histogram.observe      %8.2f ns/op\n", observe_ns);
  std::printf("span (ring off)        %8.2f ns/op\n", span_ns);
  std::printf("span (ring on)         %8.2f ns/op\n", span_ring_ns);

  // ---- (b) end-to-end ingest attribution ---------------------------------
  const Trace trace = bench::gm_trace(7);
  std::vector<std::vector<Event>> periods;
  std::size_t events_total = 0;
  for (const Period& p : trace.periods()) {
    periods.push_back(p.to_events());
    events_total += periods.back().size();
  }
  const std::size_t rounds = full ? 256 : 64;

  ManagerConfig config;
  config.workers = 1;
  SessionManager manager(config);
  const SessionId id = manager.open_session(trace.task_names());

  const obs::MetricsSnapshot before = obs::MetricsRegistry::instance().snapshot();
  Stopwatch ingest;
  for (std::size_t r = 0; r < rounds; ++r) {
    for (const auto& evs : periods) {
      (void)manager.submit(id, evs, /*block=*/true);
    }
  }
  manager.drain(id);
  const double ingest_ms = ingest.elapsed_ms();
  const obs::MetricsSnapshot after = obs::MetricsRegistry::instance().snapshot();
  // Heap churn the learner charged to this ingest (section (f) prices it).
  const VspaceSnapshot vspace = manager.vspace(id).value_or(VspaceSnapshot{});
  manager.stop();

  const OpDelta ops = ops_between(before, after);
  // Gauge traffic (queue depth add+sub per submitted period) never shows in
  // a snapshot delta (it nets to zero); price it explicitly at counter cost.
  const std::uint64_t gauge_ops = 2 * rounds * periods.size();
  const double overhead_ns =
      static_cast<double>(ops.counter_ops + gauge_ops) * counter_ns +
      static_cast<double>(ops.histogram_ops) * observe_ns;
  const double overhead_pct =
      obs::kEnabled ? overhead_ns / (ingest_ms * 1e6) * 100.0 : 0.0;
  const double events_per_sec =
      static_cast<double>(events_total * rounds) / (ingest_ms / 1e3);

  std::printf("\ningest: %zu periods (%zu events) in %.1f ms — %.0f events/s\n",
              rounds * periods.size(), events_total * rounds, ingest_ms,
              events_per_sec);
  std::printf("metric ops: %llu counter + %llu gauge + %llu histogram\n",
              static_cast<unsigned long long>(ops.counter_ops),
              static_cast<unsigned long long>(gauge_ops),
              static_cast<unsigned long long>(ops.histogram_ops));
  std::printf("instrumentation share of ingest: %.3f%% (budget %.1f%%)\n",
              overhead_pct, kBudgetPct);

  const bool within_budget = overhead_pct < kBudgetPct;

  // ---- (c) ingest with causal tracing on ---------------------------------
  // Every period carries a freshly minted trace context, so the worker
  // records queue-wait and apply child spans per period — the PR 5 traced
  // request path minus the socket.
  obs::SpanRing& ring = obs::SpanRing::instance();
  ring.set_enabled(true);
  ring.clear();
  const std::uint64_t spans_before = ring.total_recorded();
  SessionManager traced_manager(config);
  const SessionId traced_id = traced_manager.open_session(trace.task_names());
  Stopwatch traced;
  for (std::size_t r = 0; r < rounds; ++r) {
    for (const auto& evs : periods) {
      const obs::TraceContext ctx{obs::mint_id(), obs::mint_id()};
      (void)traced_manager.submit(traced_id, evs, /*block=*/true, /*seq=*/0,
                                  ctx);
    }
  }
  traced_manager.drain(traced_id);
  const double traced_ms = traced.elapsed_ms();
  traced_manager.stop();
  const std::uint64_t trace_spans = ring.total_recorded() - spans_before;
  ring.set_enabled(false);
  ring.clear();

  // Attribute at the measured ring-on span price (mint + record dominate),
  // the same methodology as (b) — wall-clock deltas between two ingest
  // runs drown in scheduler noise at this scale.
  const double trace_overhead_ns =
      static_cast<double>(trace_spans) * span_ring_ns;
  const double trace_pct =
      obs::kEnabled && traced_ms > 0.0
          ? trace_overhead_ns / (traced_ms * 1e6) * 100.0
          : 0.0;
  const bool trace_within_budget = trace_pct < kTraceBudgetPct;

  std::printf("\ntraced ingest: %zu periods in %.1f ms — %llu spans "
              "recorded\n",
              rounds * periods.size(), traced_ms,
              static_cast<unsigned long long>(trace_spans));
  std::printf("tracing share of ingest: %.3f%% (budget %.1f%%)\n", trace_pct,
              kTraceBudgetPct);

  // ---- (d) learner phase attribution -------------------------------------
  // Stride 1 makes the sampling profiler exact; deltas against its running
  // totals isolate this ingest from (b)/(c), which sampled at the default
  // stride.
  obs::PhaseProfiler& profiler = learner_profiler();
  const std::uint32_t saved_stride = profiler.stride();
  profiler.set_stride(1);
  std::vector<std::uint64_t> phase_ns_before(profiler.num_phases(), 0);
  for (std::size_t i = 0; i < profiler.num_phases(); ++i) {
    phase_ns_before[i] = profiler.phase_ns(i);
  }
  const std::uint64_t profiled_ns_before = profiler.total_ns();
  const std::uint64_t units_before = profiler.units();

  SessionManager phase_manager(config);
  const SessionId phase_id = phase_manager.open_session(trace.task_names());
  for (std::size_t r = 0; r < rounds; ++r) {
    for (const auto& evs : periods) {
      (void)phase_manager.submit(phase_id, evs, /*block=*/true);
    }
  }
  phase_manager.drain(phase_id);
  phase_manager.stop();
  profiler.set_stride(saved_stride);

  const std::uint64_t profiled_ns = profiler.total_ns() - profiled_ns_before;
  const std::uint64_t profiled_units = profiler.units() - units_before;
  std::uint64_t named_ns = 0;
  std::printf("\nlearner phase profile (%llu periods, stride 1):\n",
              static_cast<unsigned long long>(profiled_units));
  std::ostringstream phases_json;
  for (std::size_t i = 0; i < profiler.num_phases(); ++i) {
    const std::uint64_t ns = profiler.phase_ns(i) - phase_ns_before[i];
    named_ns += ns;
    const double share =
        profiled_ns > 0
            ? static_cast<double>(ns) / static_cast<double>(profiled_ns)
            : 0.0;
    std::printf("  %-12s %10.3f ms  %5.1f%%\n",
                profiler.phase_name(i).c_str(),
                static_cast<double>(ns) / 1e6, share * 100.0);
    phases_json << (i == 0 ? "" : ", ") << '"' << profiler.phase_name(i)
                << "\": " << ns;
  }
  const double attributed =
      profiled_ns > 0 ? static_cast<double>(named_ns) /
                            static_cast<double>(profiled_ns)
                      : 0.0;
  // OFF builds profile nothing; the gate only has meaning with obs on.
  const bool phases_ok = !obs::kEnabled || attributed >= 0.90;
  std::printf("attributed to named phases: %.1f%% (floor 90%%)\n",
              attributed * 100.0);

  // ---- (e) E16: perf-counter span overhead -------------------------------
  // The learner reads its thread's PerfCounterGroup five times per sampled
  // period (unit start + one read per lap).  Price one group read
  // and attribute it at the production stride against the (b) ingest wall
  // time — the same measured-cost x op-count methodology as (b).
  obs::PerfCounterGroup& perf_group = obs::PerfCounterGroup::this_thread();
  double perf_read_ns = 0.0;
  if (perf_group.supported()) {
    perf_read_ns = time_ns_per_op(micro_iters / 512, [&](std::size_t) {
      (void)perf_group.read();
    });
  }
  const std::uint64_t total_periods =
      static_cast<std::uint64_t>(rounds * periods.size());
  const std::uint64_t sampled_periods =
      obs::kEnabled ? total_periods / obs::kDefaultProfilerStride : 0;
  const double perf_overhead_ns =
      static_cast<double>(sampled_periods) * 5.0 * perf_read_ns;
  const double perf_pct =
      ingest_ms > 0.0 ? perf_overhead_ns / (ingest_ms * 1e6) * 100.0 : 0.0;
  const bool perf_ok = perf_pct < kBudgetPct;
  std::printf("\nperf-counter spans: %s, group read %.1f ns, %llu sampled "
              "periods (stride %u)\n",
              perf_group.supported() ? "hardware supported"
                                     : perf_group.unsupported_reason().c_str(),
              perf_read_ns,
              static_cast<unsigned long long>(sampled_periods),
              obs::kDefaultProfilerStride);
  std::printf("perf-span share of ingest: %.3f%% (budget %.1f%%)\n", perf_pct,
              kBudgetPct);

  // ---- (f) E16: allocation-attribution overhead --------------------------
  // The shim adds one note_alloc per operator new and one note_free per
  // operator delete.  Price the pair and attribute it to the churn the (b)
  // ingest actually charged (the session's always-on vspace counters).
  const double note_ns = time_ns_per_op(micro_iters, [&](std::size_t i) {
    obs::note_alloc(i & 1023);
    obs::note_free();
  });
  const double alloc_overhead_ns =
      static_cast<double>(vspace.allocs) * note_ns;
  const double alloc_pct =
      ingest_ms > 0.0 ? alloc_overhead_ns / (ingest_ms * 1e6) * 100.0 : 0.0;
  const bool alloc_ok = alloc_pct < kBudgetPct;
  std::printf("\nalloc tracking (%s): note pair %.2f ns, %llu allocs "
              "(%llu bytes) charged to ingest\n",
              obs::kAllocTrackEnabled ? "on" : "off", note_ns,
              static_cast<unsigned long long>(vspace.allocs),
              static_cast<unsigned long long>(vspace.alloc_bytes));
  std::printf("alloc-track share of ingest: %.3f%% (budget %.1f%%)\n",
              alloc_pct, kBudgetPct);

  std::ostringstream doc;
  doc << "{\n"
      << "  \"bench\": \"obs\",\n"
      << "  \"enabled\": " << (obs::kEnabled ? "true" : "false") << ",\n"
      << "  \"micro_ns\": {\"counter_inc\": " << counter_ns
      << ", \"counter_inc_contended4\": " << contended_ns
      << ", \"histogram_observe\": " << observe_ns
      << ", \"span_ring_off\": " << span_ns
      << ", \"span_ring_on\": " << span_ring_ns << "},\n"
      << "  \"ingest\": {\"periods\": " << rounds * periods.size()
      << ", \"events\": " << events_total * rounds
      << ", \"wall_ms\": " << ingest_ms
      << ", \"events_per_sec\": " << events_per_sec << "},\n"
      << "  \"metric_ops\": {\"counter\": " << ops.counter_ops
      << ", \"gauge\": " << gauge_ops
      << ", \"histogram\": " << ops.histogram_ops << "},\n"
      << "  \"overhead_pct\": " << overhead_pct << ",\n"
      << "  \"budget_pct\": " << kBudgetPct << ",\n"
      << "  \"within_budget\": " << (within_budget ? "true" : "false") << ",\n"
      << "  \"tracing\": {\"spans\": " << trace_spans
      << ", \"wall_ms\": " << traced_ms
      << ", \"overhead_pct\": " << trace_pct
      << ", \"budget_pct\": " << kTraceBudgetPct
      << ", \"within_budget\": " << (trace_within_budget ? "true" : "false")
      << "},\n"
      << "  \"learner_phases\": {\"profiled_periods\": " << profiled_units
      << ", \"profiled_ns\": " << profiled_ns
      << ", \"phase_ns\": {" << phases_json.str() << "}"
      << ", \"attributed_fraction\": " << attributed
      << ", \"floor\": 0.9"
      << ", \"ok\": " << (phases_ok ? "true" : "false") << "},\n"
      << "  \"perf_spans\": {\"supported\": "
      << (perf_group.supported() ? "true" : "false")
      << ", \"read_ns\": " << perf_read_ns
      << ", \"sampled_periods\": " << sampled_periods
      << ", \"overhead_pct\": " << perf_pct
      << ", \"budget_pct\": " << kBudgetPct
      << ", \"within_budget\": " << (perf_ok ? "true" : "false") << "},\n"
      << "  \"alloc_track\": {\"enabled\": "
      << (obs::kAllocTrackEnabled ? "true" : "false")
      << ", \"note_pair_ns\": " << note_ns
      << ", \"allocs\": " << vspace.allocs
      << ", \"alloc_bytes\": " << vspace.alloc_bytes
      << ", \"overhead_pct\": " << alloc_pct
      << ", \"budget_pct\": " << kBudgetPct
      << ", \"within_budget\": " << (alloc_ok ? "true" : "false") << "}\n"
      << "}\n";

  std::printf("\n%s", doc.str().c_str());
  if (std::FILE* f = std::fopen("BENCH_obs.json", "w")) {
    std::fputs(doc.str().c_str(), f);
    std::fclose(f);
  }
  return within_budget && trace_within_budget && phases_ok && perf_ok &&
                 alloc_ok
             ? 0
             : 1;
}
