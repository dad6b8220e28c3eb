// Allocations made inside OnlineLearner::observe_period, per hypothesis
// created, on the GM trace.  Above bound 1 the bounded learner builds every
// child in recycled storage (a spare copy-assigned from its parent), so
// once a period's spares are warm a child allocates nothing; at bound 1 it
// folds each child into the one hypothesis in place and never copies.
// What remains is per-period work (candidate sets, post-processing,
// history).
#include <gtest/gtest.h>

#include <cstdint>

#include "core/online_learner.hpp"
#include "obs/alloc_track.hpp"
#include "support/gm_trace.hpp"

namespace bbmg {
namespace {

struct Tally {
  std::uint64_t allocs{0};
  std::uint64_t created{0};
  [[nodiscard]] double per_child() const {
    return static_cast<double>(allocs) / static_cast<double>(created);
  }
};

/// Allocations and created hypotheses over the seed-7 GM trace at `bound`.
Tally learn_gm(std::size_t bound) {
  const Trace trace = gm_trace(7, kGmCaseStudyPeriods);
  const std::size_t n = trace.num_tasks();

  // One warm-up period first: the lazily built metrics and the thread's
  // perf-counter group allocate once, outside the measured learners.
  OnlineLearner(n, OnlineConfig{}).observe_period(trace.periods().front());

  OnlineConfig config;
  config.bound = bound;
  OnlineLearner learner(n, config);
  Tally t;
  for (const Period& period : trace.periods()) {
    const obs::AllocCounters a0 = obs::thread_alloc_counters();
    learner.observe_period(period);
    t.allocs += obs::alloc_delta(a0, obs::thread_alloc_counters()).count;
  }
  t.created = learner.stats().hypotheses_created;
  EXPECT_GT(t.created, 0u);
  return t;
}

TEST(LearnerAllocations, ChildrenReuseStorageAtBounds16And64) {
  if (!obs::kAllocTrackEnabled) {
    GTEST_SKIP() << "allocation shim compiled out (sanitizer build)";
  }
  for (const std::size_t bound : {std::size_t{16}, std::size_t{64}}) {
    const Tally t = learn_gm(bound);
    EXPECT_LT(t.per_child(), 0.2) << "bound " << bound << ": " << t.allocs
                                  << " allocations for " << t.created
                                  << " hypotheses";
  }
}

// At bound 1 no child is copied, so every allocation is per-period work:
// 535 for the 1601 children of this trace (0.33 each).  Most of it is one
// candidate-pair vector per message, reserved once to its exact size;
// growing those vectors by push_back made 2334 (1.46 each).
TEST(LearnerAllocations, Bound1FoldsChildrenInPlace) {
  if (!obs::kAllocTrackEnabled) {
    GTEST_SKIP() << "allocation shim compiled out (sanitizer build)";
  }
  const Tally t = learn_gm(1);
  EXPECT_LT(t.per_child(), 0.5) << t.allocs << " allocations for "
                                << t.created << " hypotheses";
}

}  // namespace
}  // namespace bbmg
