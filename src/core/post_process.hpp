// Period-end post-processing shared by the exact and the heuristic learner
// (paper §3.1):
//
//   1. "test conditional dependencies" — every entry that *requires* a
//      dependency which the just-finished period did not exhibit is
//      minimally weakened (-> becomes ->?, <- becomes <-?, <-> becomes
//      <->?).  The test conditions on the row task having executed: a
//      requirement on t1 is vacuous in periods where t1 did not run.
//   2. assumptions are removed (the `used` sets are cleared);
//   3. hypotheses that became equal are unified;
//   4. redundant hypotheses are deleted: d is redundant iff some strictly
//      more specific d' remains in the set (we search for the most
//      specific hypotheses, and every more general one matches whatever
//      the more specific one matches).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/candidates.hpp"
#include "core/hypothesis.hpp"

namespace bbmg {

/// Step 1 for a single hypothesis; uses (and does not clear) h.used.
void weaken_unmet_requirements(Hypothesis& h, const PeriodCandidates& pc);

/// Conservative variant of step 1 for a period whose events could not be
/// trusted (quarantined by the robustness layer).  `observed` flags tasks
/// with surviving execution evidence; for every unobserved b the period
/// *may* have refuted any "... always determines/depends on b" claim (the
/// row task may have run while b did not), so all requirement claims in
/// column b are weakened to their conditional forms.  Pure generalization —
/// matching of previously matched periods is preserved.
void weaken_possibly_unmet_requirements(Hypothesis& h,
                                        const std::vector<bool>& observed);

/// Steps 1-4 applied to a whole frontier, in place.  The surviving
/// hypotheses have empty assumption sets.
void post_process_period(std::vector<Hypothesis>& frontier,
                         const PeriodCandidates& pc);

/// Hypothesis::hash() -> position in the hypothesis vector it indexes.
using HypothesisIndex = std::unordered_multimap<std::uint64_t, std::size_t>;

/// Keep-first set insert, the one dedup both learners use: appends h to
/// `out` unless an equal (matrix, assumption-set) hypothesis is already
/// there.  `index` must describe `out` (start both empty).
void insert_unique(std::vector<Hypothesis>& out, HypothesisIndex& index,
                   Hypothesis h);

/// Steps 3-4 only (unification + redundancy removal), used by result
/// finalization and by tests.
void remove_duplicates_and_redundant(std::vector<Hypothesis>& frontier);

}  // namespace bbmg
