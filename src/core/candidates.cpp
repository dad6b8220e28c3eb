#include "core/candidates.hpp"

#include <algorithm>

namespace bbmg {

PeriodCandidates::PeriodCandidates(const Period& period, std::size_t num_tasks) {
  const std::vector<TaskExecution>& execs = period.executions();
  const std::vector<MessageOccurrence>& msgs = period.messages();

  // Period sorts executions by start, so a message's receivers (start >=
  // fall) are the suffix from its first one on.
  const auto first_receiver = [&](const MessageOccurrence& m) {
    return std::lower_bound(
        execs.begin(), execs.end(), m.fall,
        [](const TaskExecution& e, TimeNs t) { return e.start < t; });
  };

  // Size the flat array before filling it.  A task runs at most once per
  // period and no execution both ends by the rise and starts after the
  // fall, so every sender/receiver combination is a pair.
  std::size_t total = 0;
  for (const MessageOccurrence& m : msgs) {
    std::size_t senders = 0;
    for (const TaskExecution& e : execs) senders += e.end <= m.rise ? 1 : 0;
    total += senders * static_cast<std::size_t>(execs.end() - first_receiver(m));
  }
  pairs_.reserve(total);
  offsets_.reserve(msgs.size() + 1);
  offsets_.push_back(0);
  for (const MessageOccurrence& m : msgs) {
    const auto receivers = first_receiver(m);
    for (const TaskExecution& s : execs) {
      if (s.end > m.rise) continue;  // sender must have finished before rise
      for (auto r = receivers; r != execs.end(); ++r) {
        if (s.task == r->task) continue;
        pairs_.push_back(CandidatePair{
            s.task, r->task,
            static_cast<std::uint32_t>(s.task.index() * num_tasks +
                                       r->task.index())});
      }
    }
    offsets_.push_back(static_cast<std::uint32_t>(pairs_.size()));
  }

  // The tasks that ran, ascending, then the complement, ascending.
  tasks_.reserve(num_tasks);
  for (const TaskExecution& e : execs) tasks_.push_back(e.task.value);
  std::sort(tasks_.begin(), tasks_.end());
  tasks_.erase(std::unique(tasks_.begin(), tasks_.end()), tasks_.end());
  num_ran_ = tasks_.size();
  std::size_t next_ran = 0;
  for (std::uint32_t t = 0; t < num_tasks; ++t) {
    if (next_ran < num_ran_ && tasks_[next_ran] == t) {
      ++next_ran;
    } else {
      tasks_.push_back(t);
    }
  }
}

}  // namespace bbmg
