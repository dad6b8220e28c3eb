// Candidate sender/receiver extraction (paper §3.1).
//
// For a message occurrence m in period i, the set of feasible
// sender/receiver pairs is
//
//   A_m = { (s,r) | s can be m's sender and r can be m's receiver }
//
// Under the control-flow MoC a task sends only after it finishes (§2.1) and
// a task starts only after its required inputs have arrived, so from the
// trace timing alone:
//
//   s can send m    iff  s executed and end(s)   <= rise(m)
//   r can receive m iff  r executed and start(r) >= fall(m)
//
// and s != r.  This reproduces the paper's worked example: in Fig. 2's first
// period (t1 m1 t2 m2 t4), A_m1 = {(t1,t2),(t1,t4)} and
// A_m2 = {(t1,t4),(t2,t4)}.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "trace/trace.hpp"

namespace bbmg {

/// One ordered sender->receiver pair, pre-encoded for bitset indexing.
struct CandidatePair {
  TaskId sender{};
  TaskId receiver{};
  std::uint32_t pair_index{0};  // sender*num_tasks + receiver
};

/// All per-message candidate sets of one period, plus the executed-task
/// mask the period-end post-processing needs.
class PeriodCandidates {
 public:
  PeriodCandidates(const Period& period, std::size_t num_tasks);

  [[nodiscard]] std::size_t num_messages() const { return per_message_.size(); }
  [[nodiscard]] const std::vector<CandidatePair>& candidates(
      std::size_t msg) const {
    return per_message_[msg];
  }
  [[nodiscard]] bool executed(std::size_t task) const {
    return executed_[task];
  }
  [[nodiscard]] const std::vector<bool>& executed_mask() const {
    return executed_;
  }
  [[nodiscard]] std::size_t num_tasks() const { return executed_.size(); }

 private:
  std::vector<std::vector<CandidatePair>> per_message_;
  std::vector<bool> executed_;
};

}  // namespace bbmg
