// The learner's profiled phases tile every period: at stride 1, per period
// of the GM trace, the per-phase wall times sum exactly to the profiled
// period time, the branch phase counts one call per message, and the
// per-phase allocation counts sum to the allocations made inside
// observe_period.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/learner_metrics.hpp"
#include "core/online_learner.hpp"
#include "gen/gm_case_study.hpp"
#include "obs/alloc_track.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"
#include "support/metrics.hpp"

namespace bbmg {
namespace {

struct ProfilerReading {
  std::vector<std::uint64_t> ns, calls, allocs;
  std::uint64_t total_ns{0};
};

ProfilerReading read(const obs::PhaseProfiler& profiler) {
  ProfilerReading r;
  for (std::size_t i = 0; i < profiler.num_phases(); ++i) {
    const std::string& phase = profiler.phase_name(i);
    r.ns.push_back(profiler.phase_ns(i));
    r.calls.push_back(
        obs::phase_counter("bbmg_learner_phase_calls_total", phase));
    r.allocs.push_back(
        obs::phase_counter("bbmg_learner_phase_allocs_total", phase));
  }
  r.total_ns = profiler.total_ns();
  return r;
}

TEST(PhaseTiling, LearnerPhasesTileEveryGmPeriod) {
  if (!obs::kEnabled) GTEST_SKIP() << "BBMG_OBS=OFF: nothing is profiled";

  SimConfig cfg;
  cfg.seed = 7;
  const Trace trace =
      simulate_trace(gm_case_study_model(), kGmCaseStudyPeriods, cfg);
  const std::size_t n = trace.num_tasks();

  obs::PhaseProfiler& profiler = learner_profiler();
  std::size_t branch = profiler.num_phases();
  for (std::size_t i = 0; i < profiler.num_phases(); ++i) {
    if (profiler.phase_name(i) == "branch") branch = i;
  }
  ASSERT_LT(branch, profiler.num_phases());
  const std::uint32_t saved_stride = profiler.stride();
  profiler.set_stride(1);

  // One warm-up period first: the lazily built metrics and the thread's
  // perf-counter group allocate once, outside any phase.
  OnlineLearner(n, OnlineConfig{}).observe_period(trace.periods().front());

  OnlineLearner learner(n, OnlineConfig{});
  for (std::size_t p = 0; p < trace.num_periods(); ++p) {
    const Period& period = trace.periods()[p];
    const std::size_t messages = PeriodCandidates(period, n).num_messages();
    const ProfilerReading before = read(profiler);
    const obs::AllocCounters a0 = obs::thread_alloc_counters();
    learner.observe_period(period);
    const obs::AllocCounters allocated =
        obs::alloc_delta(a0, obs::thread_alloc_counters());
    const ProfilerReading after = read(profiler);

    std::uint64_t ns = 0;
    std::uint64_t allocs = 0;
    for (std::size_t i = 0; i < profiler.num_phases(); ++i) {
      ns += after.ns[i] - before.ns[i];
      allocs += after.allocs[i] - before.allocs[i];
    }
    EXPECT_EQ(ns, after.total_ns - before.total_ns) << "period " << p;
    EXPECT_EQ(after.calls[branch] - before.calls[branch], messages)
        << "period " << p;
    EXPECT_EQ(allocs, allocated.count) << "period " << p;
  }
  profiler.set_stride(saved_stride);
}

}  // namespace
}  // namespace bbmg
