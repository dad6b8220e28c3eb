#include "core/candidates.hpp"

namespace bbmg {

PeriodCandidates::PeriodCandidates(const Period& period, std::size_t num_tasks)
    : executed_(num_tasks, false) {
  for (const auto& e : period.executions()) executed_[e.task.index()] = true;

  per_message_.reserve(period.messages().size());
  for (const auto& m : period.messages()) {
    // Size the set before filling it.  A task runs at most once per period
    // and no execution both ends by the rise and starts after the fall, so
    // every sender/receiver combination is a pair.
    std::size_t senders = 0;
    std::size_t receivers = 0;
    for (const auto& e : period.executions()) {
      senders += e.end <= m.rise ? 1 : 0;
      receivers += e.start >= m.fall ? 1 : 0;
    }
    std::vector<CandidatePair> pairs;
    pairs.reserve(senders * receivers);
    for (const auto& s : period.executions()) {
      if (s.end > m.rise) continue;  // sender must have finished before rise
      for (const auto& r : period.executions()) {
        if (r.start < m.fall) continue;  // receiver starts after delivery
        if (s.task == r.task) continue;
        pairs.push_back(CandidatePair{
            s.task, r.task,
            static_cast<std::uint32_t>(s.task.index() * num_tasks +
                                       r.task.index())});
      }
    }
    per_message_.push_back(std::move(pairs));
  }
}

}  // namespace bbmg
