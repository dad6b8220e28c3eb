// Trace-level co-execution history.
//
// The dependency values ->, <- and <-> claim *determination of execution*
// ("if t1 executes in a period, it always determines the execution of t2",
// Definition 5) — the paper's dependency models deliberately cover indirect
// influence with no explicit message between the two tasks (§2.1).  Such a
// claim is refuted exactly by a period in which the determining/depending
// task ran but the other did not.  CoExecutionHistory records, over the
// periods processed so far, for every ordered pair (a,b) whether a ever
// executed in a period where b did not.  It is a property of the trace
// prefix, shared by all hypotheses.
#pragma once

#include <vector>

#include "core/candidates.hpp"

namespace bbmg {

class CoExecutionHistory {
 public:
  explicit CoExecutionHistory(std::size_t num_tasks)
      : n_(num_tasks), ran_without_(num_tasks * num_tasks, 0) {}

  /// Has task a executed in some recorded period where b did not?
  [[nodiscard]] bool ran_without(std::size_t a, std::size_t b) const {
    return ran_without_[a * n_ + b] != 0;
  }

  /// Fold one completed period into the history.
  void record_period(const PeriodCandidates& pc) {
    pc.for_each_ran_idle(
        [&](std::size_t a, std::size_t b) { ran_without_[a * n_ + b] = 1; });
  }

  /// Fold one *untrusted* (quarantined) period into the history.
  /// `observed` flags tasks with surviving evidence of execution — under
  /// the robustness layer's fault model this is a subset of the tasks that
  /// truly ran (corruption can hide events but never invents executions of
  /// a task with none).  Conservatively, any task may have run, so for
  /// every unobserved b the pair (a,b) may have been a period where a ran
  /// without b; the claim "a always determines/depends on b" must not be
  /// (re)asserted afterwards.  Over-marking only weakens future
  /// generalizations (monotone up the lattice), never unsoundly
  /// strengthens them.
  void record_untrusted_period(const std::vector<bool>& observed) {
    for (std::size_t b = 0; b < n_; ++b) {
      if (b < observed.size() && observed[b]) continue;
      for (std::size_t a = 0; a < n_; ++a) {
        if (a != b) ran_without_[a * n_ + b] = 1;
      }
    }
  }

  /// Raw cell storage (n*n entries), exposed for the durable snapshot
  /// codec: the history round-trips as a byte array.
  [[nodiscard]] const std::vector<char>& cells() const { return ran_without_; }

  /// Overwrite the history with serialized cells; must hold n*n entries.
  void restore_cells(std::vector<char> cells) {
    if (cells.size() == ran_without_.size()) ran_without_ = std::move(cells);
  }

 private:
  std::size_t n_;
  std::vector<char> ran_without_;
};

}  // namespace bbmg
