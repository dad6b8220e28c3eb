// The polynomial heuristic learner (paper §3.2).
//
// Instead of the unbounded hypothesis set, a weight-ordered list with a
// user-specified bound b is maintained.  Each time adding a hypothesis
// would make the list 1-greater than the bound, the two hypotheses with the
// least weights (the two most specific ones) are replaced by their least
// upper bound.  The result is still correct (every returned hypothesis
// matches the whole trace, Theorem 2) but no longer guaranteed to be most
// specific.  With bound 1 the algorithm degenerates to maintaining a single
// running LUB, which by the paper's Lemma equals the LUB of the result set
// at any other bound — our bench_exact_vs_heuristic checks exactly this.
//
// Merge semantics where the paper is silent (see DESIGN.md §2): the merged
// hypothesis's assumption set is the *union* of the parents' sets, and a
// hypothesis that cannot explain a message (every candidate pair already
// assumed) is dropped like in the exact learner unless that would empty the
// list, in which case the list is kept unchanged and the message counted in
// stats.unexplained_messages.
#pragma once

#include "core/learn_result.hpp"
#include "trace/trace.hpp"

namespace bbmg {

/// Learn with at most `bound` hypotheses kept (the paper's "bound"; must
/// be >= 1).
[[nodiscard]] LearnResult learn_heuristic(const Trace& trace,
                                          std::size_t bound);

}  // namespace bbmg
