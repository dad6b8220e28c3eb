// Allocations made inside OnlineLearner::observe_period, per hypothesis
// created, on the GM trace.  The bounded learner builds every child in
// recycled storage (a spare copy-assigned from its parent), so once a
// period's spares are warm a child allocates nothing; what remains is
// per-period work (candidate sets, post-processing, history).
#include <gtest/gtest.h>

#include "core/online_learner.hpp"
#include "gen/gm_case_study.hpp"
#include "obs/alloc_track.hpp"
#include "sim/simulator.hpp"

namespace bbmg {
namespace {

TEST(LearnerAllocations, ChildrenReuseStorageAtBounds16And64) {
  if (!obs::kAllocTrackEnabled) {
    GTEST_SKIP() << "allocation shim compiled out (sanitizer build)";
  }
  SimConfig cfg;
  cfg.seed = 7;
  const Trace trace =
      simulate_trace(gm_case_study_model(), kGmCaseStudyPeriods, cfg);
  const std::size_t n = trace.num_tasks();

  // One warm-up period first: the lazily built metrics and the thread's
  // perf-counter group allocate once, outside the measured learners.
  OnlineLearner(n, OnlineConfig{}).observe_period(trace.periods().front());

  for (const std::size_t bound : {std::size_t{16}, std::size_t{64}}) {
    OnlineConfig config;
    config.bound = bound;
    OnlineLearner learner(n, config);
    std::uint64_t allocs = 0;
    for (const Period& period : trace.periods()) {
      const obs::AllocCounters a0 = obs::thread_alloc_counters();
      learner.observe_period(period);
      allocs += obs::alloc_delta(a0, obs::thread_alloc_counters()).count;
    }
    const std::uint64_t created = learner.stats().hypotheses_created;
    ASSERT_GT(created, 0u);
    const double per_child =
        static_cast<double>(allocs) / static_cast<double>(created);
    EXPECT_LT(per_child, 0.2) << "bound " << bound << ": " << allocs
                              << " allocations for " << created
                              << " hypotheses";
  }
}

}  // namespace
}  // namespace bbmg
