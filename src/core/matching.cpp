#include "core/matching.hpp"

#include <functional>

#include "common/bitset.hpp"

namespace bbmg {

namespace {

/// Check the universal requirements of d against the period's execution
/// set.  ->, <- and <-> claim determination of *execution* (possibly
/// indirect, §2.1), so a requirement on pair (a,b) is violated exactly when
/// a executed and b did not.  Requirements are assignment-independent.
bool requirements_hold(const DependencyMatrix& d, const PeriodCandidates& pc) {
  bool hold = true;
  pc.for_each_ran_idle([&](std::size_t a, std::size_t b) {
    const DepValue v = d.at(a, b);
    if (dep_requires_forward(v) || dep_requires_backward(v)) hold = false;
  });
  return hold;
}

}  // namespace

bool matches_period(const DependencyMatrix& d, const PeriodCandidates& pc) {
  if (!requirements_hold(d, pc)) return false;

  const std::size_t n = d.num_tasks();
  const std::size_t num_msgs = pc.num_messages();
  DynamicBitset assigned(n * n);

  std::function<bool(std::size_t)> assign = [&](std::size_t msg) -> bool {
    if (msg == num_msgs) return true;
    for (const CandidatePair& p : pc.candidates(msg)) {
      if (assigned.test(p.pair_index)) continue;
      const std::size_t s = p.sender.index();
      const std::size_t r = p.receiver.index();
      if (!dep_permits_forward(d.at(s, r))) continue;
      if (!dep_permits_backward(d.at(r, s))) continue;
      assigned.set(p.pair_index);
      if (assign(msg + 1)) return true;
      assigned.reset(p.pair_index);
    }
    return false;
  };

  return assign(0);
}

bool matches_trace(const DependencyMatrix& d, const Trace& trace) {
  for (const auto& period : trace.periods()) {
    PeriodCandidates pc(period, trace.num_tasks());
    if (!matches_period(d, pc)) return false;
  }
  return true;
}

}  // namespace bbmg
