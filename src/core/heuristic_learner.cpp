#include "core/heuristic_learner.hpp"

#include "common/stopwatch.hpp"
#include "core/online_learner.hpp"

namespace bbmg {

// The batch heuristic is the streaming learner fed with the whole trace;
// all of §3.2's machinery lives in core/online_learner.cpp.
LearnResult learn_heuristic(const Trace& trace, std::size_t bound) {
  Stopwatch watch;
  OnlineLearner learner(trace.num_tasks(), OnlineConfig{bound});
  for (const auto& period : trace.periods()) {
    learner.observe_period(period);
  }
  LearnResult result = learner.snapshot();
  result.stats.wall_seconds = watch.elapsed_seconds();
  return result;
}

}  // namespace bbmg
