// Frozen reference learners for the differential suite (`ctest -L
// reference`).
//
// A plain copy of the paper's two learners with no instrumentation and no
// optimisation: the §3.2 bounded heuristic (a weight-sorted list with a
// linear duplicate scan, merging the two least-weight members past the
// bound) and the §3.1 exact learner (hash-deduplicated branching), both fed
// one period at a time, plus the period-end post-processing they share.
// The product learners (core/online_learner, core/exact_learner,
// core/post_process) are checked against these after every period: same
// frontier order, matrices, assumption sets and LearnStats.
//
// This code is a test-only target, never linked into a product library.
// Leave it slow and simple; its value is that it does not change when the
// product learners are optimised.  It runs on its own frozen matrix and
// hypothesis (reference_matrix.hpp) and its own frozen candidate sets and
// co-execution history (reference_inputs.hpp), and shares only the lattice
// value functions with the product.
#pragma once

#include <cstddef>
#include <vector>

#include "core/learn_result.hpp"
#include "reference/reference_inputs.hpp"
#include "reference/reference_matrix.hpp"
#include "trace/trace.hpp"

namespace bbmg::reference {

/// Paper §3.1 post-processing steps 1-4 (cf. core/post_process.hpp).
void weaken_unmet_requirements(Hypothesis& h, const Candidates& pc);
void weaken_possibly_unmet_requirements(Hypothesis& h,
                                        const std::vector<bool>& observed);
void remove_duplicates_and_redundant(std::vector<Hypothesis>& frontier);
void post_process_period(std::vector<Hypothesis>& frontier,
                         const Candidates& pc);

/// The bounded heuristic of §3.2, period by period (cf. OnlineLearner).
class BoundedLearner {
 public:
  BoundedLearner(std::size_t num_tasks, std::size_t bound);

  void observe_period(const Period& period);
  void observe_quarantined_period(const std::vector<bool>& observed);

  [[nodiscard]] const std::vector<Hypothesis>& hypotheses() const {
    return frontier_;
  }
  [[nodiscard]] const LearnStats& stats() const { return stats_; }

 private:
  std::size_t num_tasks_;
  std::size_t bound_;
  History history_;
  std::vector<Hypothesis> frontier_;
  LearnStats stats_;
};

/// The exact learner of §3.1 without dominance pruning, period by period
/// (cf. learn_exact).  observe_period throws bbmg::Error with learn_exact's
/// messages when the hypothesis set empties or exceeds `max_frontier`.
class ExactLearner {
 public:
  ExactLearner(std::size_t num_tasks, std::size_t max_frontier);

  void observe_period(const Period& period);

  /// Matrices sorted by weight, as learn_exact returns them.
  [[nodiscard]] std::vector<Matrix> matrices() const;
  [[nodiscard]] const LearnStats& stats() const { return stats_; }

 private:
  std::size_t num_tasks_;
  std::size_t max_frontier_;
  History history_;
  std::vector<Hypothesis> frontier_;
  LearnStats stats_;
};

}  // namespace bbmg::reference
