// Process-wide learner metrics (DESIGN.md "Observability"): period and
// message throughput, hypothesis branching/pruning totals, the version-
// space peak high-water mark, and the per-period latency histogram.
// Resolved once behind a function-local static (references are cached by
// the instrumented code); aggregates across every learner in the process.
#pragma once

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"

namespace bbmg {

/// Phase indices for the learner's sampling self-profiler (the order is
/// the phase_names order in learner_profiler()).
struct LearnerPhase {
  enum : std::size_t {
    /// Candidate sender/receiver enumeration (PeriodCandidates build).
    Enumerate,
    /// The message loop: per-message hypothesis branching, the bounded
    /// list's duplicate scan and its least-upper-bound merges.
    Branch,
    /// Frontier post-processing after the period.
    PostProcess,
    /// Period-history recording.
    History,
  };
};

/// Process-wide sampling profiler over the online learner's period loop
/// (`bbmg_learner_phase_ns_total{phase=...}` et al., with hardware counters
/// as `bbmg_perf_learner_*_total{phase=...}`).  Stride defaults to
/// kDefaultProfilerStride; bench_obs sets 1 for exact attribution.
inline obs::PhaseProfiler& learner_profiler() {
  static obs::PhaseProfiler profiler(
      "bbmg_learner", "bbmg_perf_learner",
      {"enumerate", "branch", "post_process", "history"});
  return profiler;
}

struct LearnerMetrics {
  /// Periods fed to any learner (online, exact, heuristic).
  obs::Counter& periods;
  /// Messages processed across all periods.
  obs::Counter& messages;
  /// Hypotheses branched (children created during candidate expansion).
  obs::Counter& branched;
  /// Hypotheses pruned (bounded-list merges, dominance pruning).
  obs::Counter& pruned;
  /// Messages no hypothesis could explain (bounded learner keeps going).
  obs::Counter& unexplained;
  /// Periods quarantined at the learner level (conservative weakening).
  obs::Counter& quarantined;
  /// Peak live-hypothesis count ever observed (set_max high-water mark).
  obs::Gauge& version_space_peak;
  /// Wall time to learn one period.
  obs::Histogram& period_latency_us;

  static LearnerMetrics& get() {
    static LearnerMetrics m = make();
    return m;
  }

 private:
  static LearnerMetrics make() {
    auto& r = obs::MetricsRegistry::instance();
    return LearnerMetrics{
        r.counter("bbmg_learner_periods_total"),
        r.counter("bbmg_learner_messages_total"),
        r.counter("bbmg_learner_hypotheses_branched_total"),
        r.counter("bbmg_learner_hypotheses_pruned_total"),
        r.counter("bbmg_learner_unexplained_messages_total"),
        r.counter("bbmg_learner_quarantined_periods_total"),
        r.gauge("bbmg_learner_version_space_peak"),
        r.histogram("bbmg_learner_period_latency_us",
                    obs::default_latency_buckets_us()),
    };
  }
};

}  // namespace bbmg
