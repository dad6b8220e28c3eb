// Frozen per-period learner inputs for the differential suite.
//
// Plain copies of core/candidates and core/history as they were before
// the product moved every pair of a period into one flat array, found a
// message's receivers as a suffix of the start-sorted executions, and
// walked only (ran x idle) task pairs: one vector of pairs per message,
// each filled by the O(E^2) scan over sender x receiver executions, an
// executed-task mask, and an n^2 history fold over that mask.  The
// reference learners run on these, and inputs_test.cpp compares the
// product's PeriodCandidates and CoExecutionHistory with them directly.
#pragma once

#include <cstddef>
#include <vector>

#include "core/candidates.hpp"
#include "trace/trace.hpp"

namespace bbmg::reference {

/// Every message's candidate pairs, in sender-major order, and which tasks
/// executed (cf. core/candidates.hpp).
struct Candidates {
  Candidates(const Period& period, std::size_t num_tasks);

  std::vector<std::vector<CandidatePair>> per_message;
  std::vector<bool> executed;
};

/// For every ordered pair (a,b): did a execute in some recorded period
/// where b did not?  (cf. core/history.hpp)
class History {
 public:
  explicit History(std::size_t num_tasks)
      : n_(num_tasks), ran_without_(num_tasks * num_tasks, 0) {}

  [[nodiscard]] bool ran_without(std::size_t a, std::size_t b) const {
    return ran_without_[a * n_ + b] != 0;
  }
  void record_period(const std::vector<bool>& executed);
  void record_untrusted_period(const std::vector<bool>& observed);
  [[nodiscard]] const std::vector<char>& cells() const { return ran_without_; }

 private:
  std::size_t n_;
  std::vector<char> ran_without_;
};

}  // namespace bbmg::reference
