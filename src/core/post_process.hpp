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

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>
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

/// The one dominance scan: erases, in place and keeping order, every x for
/// which some other element y satisfies strictly_below(y, x).  The
/// predicate must be a strict partial order, so the survivors do not
/// depend on the scan order.  O(k^2).
template <class T, class StrictlyBelow>
void erase_dominated(std::vector<T>& items, StrictlyBelow strictly_below) {
  std::vector<bool> dead(items.size(), false);
  for (std::size_t i = 0; i < items.size(); ++i) {
    for (std::size_t j = 0; j < items.size(); ++j) {
      if (i == j || dead[j]) continue;
      if (strictly_below(items[j], items[i])) {
        dead[i] = true;
        break;
      }
    }
  }
  std::size_t w = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (dead[i]) continue;
    if (w != i) items[w] = std::move(items[i]);
    ++w;
  }
  items.resize(w);
}

}  // namespace bbmg
