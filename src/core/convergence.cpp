#include "core/convergence.hpp"

namespace bbmg {

bool ConvergenceDetector::observe(const DependencyMatrix& summary) {
  ++periods_;
  if (last_.has_value() && *last_ == summary) {
    ++streak_;
  } else {
    streak_ = 0;
    last_ = summary;
  }
  stable_ = streak_ >= window_ && periods_ >= min_periods_;
  return stable_;
}

std::size_t learn_until_stable(OnlineLearner& learner, const Trace& trace,
                               ConvergenceDetector& detector) {
  std::size_t consumed = 0;
  for (const auto& period : trace.periods()) {
    learner.observe_period(period);
    ++consumed;
    // Join the live frontier in place: snapshot() would copy and sort every
    // matrix and the whole per-period history, O(periods) per period.
    const std::vector<Hypothesis>& hs = learner.hypotheses();
    DependencyMatrix summary = hs.front().d;
    for (std::size_t i = 1; i < hs.size(); ++i) summary.join(hs[i].d);
    if (detector.observe(summary)) break;
  }
  return consumed;
}

}  // namespace bbmg
