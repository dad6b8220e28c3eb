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

#include <cstddef>
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

/// A read-only view of a contiguous run of T inside a PeriodCandidates.
/// Not std::span: perfbench sets no C++ standard, so the headers it
/// includes compile as gnu++17.  Valid while its PeriodCandidates lives.
template <class T>
class ConstView {
 public:
  ConstView(const T* first, const T* last) : first_(first), last_(last) {}

  [[nodiscard]] const T* begin() const { return first_; }
  [[nodiscard]] const T* end() const { return last_; }
  [[nodiscard]] std::size_t size() const {
    return static_cast<std::size_t>(last_ - first_);
  }
  [[nodiscard]] bool empty() const { return first_ == last_; }
  [[nodiscard]] const T& operator[](std::size_t i) const { return first_[i]; }

 private:
  const T* first_;
  const T* last_;
};

/// All per-message candidate sets of one period, plus the split of the
/// tasks into those that ran and those that did not, which the period-end
/// post-processing, the co-execution history and the matching function
/// need.
///
/// Every pair of the period sits in one flat array, message after message,
/// in sender-major order; offsets_ marks where each message's set starts.
/// The tasks sit in one index array too: the ones that ran, ascending,
/// then the ones that did not, ascending.
class PeriodCandidates {
 public:
  PeriodCandidates(const Period& period, std::size_t num_tasks);

  [[nodiscard]] std::size_t num_messages() const { return offsets_.size() - 1; }
  [[nodiscard]] ConstView<CandidatePair> candidates(std::size_t msg) const {
    return {pairs_.data() + offsets_[msg], pairs_.data() + offsets_[msg + 1]};
  }

  /// Tasks that executed in the period, ascending.
  [[nodiscard]] ConstView<std::uint32_t> ran() const {
    return {tasks_.data(), tasks_.data() + num_ran_};
  }
  /// Tasks that did not execute in the period, ascending.
  [[nodiscard]] ConstView<std::uint32_t> idle() const {
    return {tasks_.data() + num_ran_, tasks_.data() + tasks_.size()};
  }
  [[nodiscard]] std::size_t num_tasks() const { return tasks_.size(); }

  /// Calls f(a, b) for every ordered pair where a ran and b did not,
  /// ordered by a, then by b.  These are exactly the pairs whose
  /// requirement claims (->, <-, <->: "if a executes, b executes") the
  /// period refutes.
  template <class F>
  void for_each_ran_idle(F&& f) const {
    for (const std::uint32_t a : ran()) {
      for (const std::uint32_t b : idle()) f(std::size_t{a}, std::size_t{b});
    }
  }

 private:
  std::vector<CandidatePair> pairs_;
  std::vector<std::uint32_t> offsets_;  // num_messages + 1 entries
  std::vector<std::uint32_t> tasks_;    // ran ascending, then idle ascending
  std::size_t num_ran_{0};
};

}  // namespace bbmg
