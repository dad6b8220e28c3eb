// Result and instrumentation types shared by both learners.
#pragma once

#include <cstdint>
#include <vector>

#include "lattice/dependency_matrix.hpp"

namespace bbmg {

/// The fixed-size counters of LearnStats: copying them is O(1), whatever
/// the run's length.
struct LearnCounters {
  std::size_t periods_processed{0};
  std::size_t messages_processed{0};
  /// Largest hypothesis-set size observed at any point during learning
  /// (mid-period; this is what explodes for the exact algorithm).
  std::size_t peak_hypotheses{0};
  /// Total child hypotheses materialized.
  std::uint64_t hypotheses_created{0};
  /// Heuristic only: number of least-upper-bound merges forced by the bound.
  std::uint64_t merges{0};
  /// Messages for which a hypothesis had no unused candidate pair and was
  /// kept unchanged instead of branching (heuristic fallback; see DESIGN.md).
  std::uint64_t unexplained_messages{0};
  /// Streaming only: periods handed to observe_quarantined_period (corrupt
  /// input skipped by the robustness layer; not counted in
  /// periods_processed).
  std::uint64_t quarantined_periods{0};
  double wall_seconds{0.0};
};

struct LearnStats : LearnCounters {
  /// Hypothesis-set size after post-processing of each period; grows by
  /// one entry per period.
  std::vector<std::size_t> frontier_after_period;
};

struct LearnResult {
  /// Surviving hypotheses, most specific first (sorted by ascending weight).
  std::vector<DependencyMatrix> hypotheses;
  LearnStats stats;

  /// Did the algorithm converge to a unique most specific solution (§3.1)?
  [[nodiscard]] bool converged() const { return hypotheses.size() == 1; }

  /// The paper's dLUB summarizer: least upper bound of all survivors.
  [[nodiscard]] DependencyMatrix lub() const { return lub_all(hypotheses); }
};

}  // namespace bbmg
