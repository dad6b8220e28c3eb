#include "reference/reference_inputs.hpp"

namespace bbmg::reference {

Candidates::Candidates(const Period& period, std::size_t num_tasks)
    : executed(num_tasks, false) {
  for (const auto& e : period.executions()) executed[e.task.index()] = true;
  for (const auto& m : period.messages()) {
    std::vector<CandidatePair> pairs;
    for (const auto& s : period.executions()) {
      if (s.end > m.rise) continue;
      for (const auto& r : period.executions()) {
        if (r.start < m.fall) continue;
        if (s.task == r.task) continue;
        pairs.push_back(CandidatePair{
            s.task, r.task,
            static_cast<std::uint32_t>(s.task.index() * num_tasks +
                                       r.task.index())});
      }
    }
    per_message.push_back(std::move(pairs));
  }
}

void History::record_period(const std::vector<bool>& executed) {
  for (std::size_t a = 0; a < n_; ++a) {
    if (!executed[a]) continue;
    for (std::size_t b = 0; b < n_; ++b) {
      if (!executed[b]) ran_without_[a * n_ + b] = 1;
    }
  }
}

void History::record_untrusted_period(const std::vector<bool>& observed) {
  for (std::size_t b = 0; b < n_; ++b) {
    if (b < observed.size() && observed[b]) continue;
    for (std::size_t a = 0; a < n_; ++a) {
      if (a != b) ran_without_[a * n_ + b] = 1;
    }
  }
}

}  // namespace bbmg::reference
