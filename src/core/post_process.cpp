#include "core/post_process.hpp"

namespace bbmg {

void weaken_unmet_requirements(Hypothesis& h, const PeriodCandidates& pc) {
  // Requirements on a task that did not run are vacuous.  For a that ran
  // and b that did not, both "a always determines b" (->, needs b to have
  // executed) and "a always depends on b" (<-, needs b to have executed)
  // are refuted by this period and weakened to their conditional forms.
  // <-> loses both claims and becomes <->?.
  pc.for_each_ran_idle([&](std::size_t a, std::size_t b) {
    DepValue v = h.d.at(a, b);
    if (dep_requires_forward(v)) v = dep_weaken_forward_requirement(v);
    if (dep_requires_backward(v)) v = dep_weaken_backward_requirement(v);
    if (v != h.d.at(a, b)) h.d.set(a, b, v);
  });
}

void weaken_possibly_unmet_requirements(Hypothesis& h,
                                        const std::vector<bool>& observed) {
  const std::size_t n = h.d.num_tasks();
  for (std::size_t b = 0; b < n; ++b) {
    if (b < observed.size() && observed[b]) continue;
    for (std::size_t a = 0; a < n; ++a) {
      if (a == b) continue;
      DepValue v = h.d.at(a, b);
      if (dep_requires_forward(v)) v = dep_weaken_forward_requirement(v);
      if (dep_requires_backward(v)) v = dep_weaken_backward_requirement(v);
      if (v != h.d.at(a, b)) h.d.set(a, b, v);
    }
  }
}

void insert_unique(std::vector<Hypothesis>& out, HypothesisIndex& index,
                   Hypothesis h) {
  const std::uint64_t hash = h.hash();
  const auto [first, last] = index.equal_range(hash);
  for (auto it = first; it != last; ++it) {
    if (out[it->second] == h) return;
  }
  index.emplace(hash, out.size());
  out.push_back(std::move(h));
}

void remove_duplicates_and_redundant(std::vector<Hypothesis>& frontier) {
  // Bound 1's period end and most quarantined periods: nothing to unify.
  if (frontier.size() < 2) return;
  // Unify equal matrices (assumptions are expected to be cleared already,
  // but equality on Hypothesis covers both fields, so this is safe either
  // way).
  std::vector<Hypothesis> unique;
  unique.reserve(frontier.size());
  HypothesisIndex index;
  for (auto& h : frontier) insert_unique(unique, index, std::move(h));

  // Remove non-minimal elements: h is redundant iff some other (distinct)
  // h' in the set satisfies h' <= h.
  erase_dominated(unique, [](const Hypothesis& lo, const Hypothesis& hi) {
    return lo.d.leq(hi.d) && lo.d != hi.d;
  });
  frontier = std::move(unique);
}

void post_process_period(std::vector<Hypothesis>& frontier,
                         const PeriodCandidates& pc) {
  for (auto& h : frontier) {
    weaken_unmet_requirements(h, pc);
    h.used.clear();
  }
  remove_duplicates_and_redundant(frontier);
}

}  // namespace bbmg
