// DependencyMatrix is the concrete representation of a dependency function
// d : T x T -> V (paper Definition 5) for a fixed task count.
//
// Entries are *oriented*: d(a,b) and d(b,a) are stored independently because
// the period-end weakening of the learner conditions on which of the two
// tasks executed (see paper §3.3: after period 3, d81 has d(t1,t2)=->? but
// d(t2,t1)=<-, which are not mirrors of each other).  Fresh generalizations,
// however, always write mirrored pairs.
//
// The diagonal is fixed to || (a task has no dependency on itself).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "lattice/dependency_value.hpp"

namespace bbmg {

class DependencyMatrix {
 public:
  DependencyMatrix() = default;

  /// The most specific function d_bot: everything Parallel.
  explicit DependencyMatrix(std::size_t num_tasks);

  /// The least specific function d_top: everything MaybeMutual (off the
  /// diagonal).  This is also the "fully pessimistic" baseline model.
  static DependencyMatrix top(std::size_t num_tasks);

  [[nodiscard]] std::size_t num_tasks() const { return n_; }

  [[nodiscard]] DepValue at(TaskId a, TaskId b) const {
    return at(a.index(), b.index());
  }
  [[nodiscard]] DepValue at(std::size_t a, std::size_t b) const {
    return a == b ? DepValue::Parallel : cells_[a * n_ + b];
  }

  /// Set one oriented entry.  Setting a diagonal entry is an error.
  void set(TaskId a, TaskId b, DepValue v) { set(a.index(), b.index(), v); }
  void set(std::size_t a, std::size_t b, DepValue v);

  /// Set d(a,b)=v and d(b,a)=mirror(v) in one step.
  void set_pair(std::size_t a, std::size_t b, DepValue v);

  /// Pointwise partial order: *this <= other iff every entry is <=.
  [[nodiscard]] bool leq(const DependencyMatrix& other) const;

  /// Pointwise least upper bound; both matrices must have equal size.
  [[nodiscard]] DependencyMatrix lub(const DependencyMatrix& other) const;

  /// In place: *this = lub(*this, other), without allocating.
  void join(const DependencyMatrix& other);

  /// Sum of dep_distance over all ordered pairs (paper Definition 8).
  /// Kept current by every mutation, so reading it is O(1).
  [[nodiscard]] std::uint64_t weight() const { return weight_; }

  /// FNV-ish content hash (used by the learner's dedup tables).
  [[nodiscard]] std::uint64_t hash() const;

  friend bool operator==(const DependencyMatrix& a, const DependencyMatrix& b) {
    return a.n_ == b.n_ && a.cells_ == b.cells_;
  }
  friend bool operator!=(const DependencyMatrix& a, const DependencyMatrix& b) {
    return !(a == b);
  }

  /// Render as the paper's square table, with task names as labels.
  /// `names` may be empty, in which case t0,t1,... are used.
  [[nodiscard]] std::string to_table(
      const std::vector<std::string>& names = {}) const;

  /// Count of entries equal to v (over ordered non-diagonal pairs).
  [[nodiscard]] std::size_t count_value(DepValue v) const;

 private:
  std::size_t n_{0};
  std::vector<DepValue> cells_;  // row-major n*n, diagonal kept at Parallel
  std::uint64_t weight_{0};      // sum of dep_distance over cells_
};

/// LUB of a non-empty set of matrices (the paper's `dLUB` summarizer used
/// when the learner does not converge to a single hypothesis).
[[nodiscard]] DependencyMatrix lub_all(const std::vector<DependencyMatrix>& ms);

}  // namespace bbmg
