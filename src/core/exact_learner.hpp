// The precise generalization algorithm (paper §3.1).
//
// Starting from D0 = {d_bot}, each period is processed message by message:
// every hypothesis branches over all timing-feasible, not-yet-assumed
// sender/receiver pairs of the message, generalizing minimally; at the end
// of the period the post-processing weakens unmet requirements, drops
// assumptions, unifies duplicates, and deletes redundant hypotheses.
//
// The set of hypotheses can grow exponentially in the number of messages
// per period (the underlying problem is NP-hard, Theorem 1); identical
// (matrix, assumption-set) states reached through different branch orders
// are unified eagerly to keep realistic traces tractable.  `max_frontier`
// is a hard safety valve: exceeding it throws bbmg::Error rather than
// thrashing.
#pragma once

#include "core/learn_result.hpp"
#include "trace/trace.hpp"

namespace bbmg {

struct ExactConfig {
  /// Abort (throw) if the mid-period hypothesis set exceeds this size.
  std::size_t max_frontier = 4'000'000;

  /// Lossless mid-period pruning beyond the paper: drop hypothesis h1 when
  /// some h2 in the frontier has h2.d <= h1.d AND h2.used ⊆ h1.used.
  /// Every future extension of h1 then has a counterpart extension of h2
  /// that is <= it (the generalization and weakening operators are
  /// monotone in the lattice, and a subset assumption-set can always make
  /// the same assumption), so h1's descendants are exactly the redundant
  /// hypotheses the period-end post-processing would delete anyway.  The
  /// final minimal set is provably unchanged (asserted by property tests);
  /// only the intermediate frontier shrinks.
  bool dominance_pruning = false;
};

/// Run the exact learner over the whole trace.  Throws bbmg::Error if the
/// hypothesis set becomes empty (the trace violates the MoC assumptions or
/// the generalization language cannot express it) or if max_frontier is
/// exceeded.
[[nodiscard]] LearnResult learn_exact(const Trace& trace,
                                      const ExactConfig& config = {});

}  // namespace bbmg
