#include "core/version_space.hpp"

#include <algorithm>
#include <unordered_set>

#include "common/error.hpp"
#include "core/candidates.hpp"
#include "core/exact_learner.hpp"
#include "core/matching.hpp"
#include "core/post_process.hpp"

namespace bbmg {

namespace {

/// Keys the search's seen set by value: hash first, operator== on a tie,
/// so a 64-bit hash collision cannot drop a distinct specialization.
struct MatrixHash {
  std::size_t operator()(const DependencyMatrix& m) const { return m.hash(); }
};

bool matches_all(const DependencyMatrix& d,
                 const std::vector<PeriodCandidates>& pcs) {
  for (const auto& pc : pcs) {
    if (!matches_period(d, pc)) return false;
  }
  return true;
}

/// Minimal specializations of `g` that reject the negative period while
/// still matching every positive period.  Breadth-first search down the
/// lattice; because the matching function is not monotone along the
/// ||->-> edges (a specialization can introduce a requirement), branches
/// that temporarily fail the positives are still expanded.  `budget`
/// bounds the explored node count; search is best-effort beyond it.
std::vector<DependencyMatrix> specialize_against(
    const DependencyMatrix& g, const PeriodCandidates& negative,
    const std::vector<PeriodCandidates>& positives, std::size_t budget) {
  std::vector<DependencyMatrix> found;
  std::vector<DependencyMatrix> frontier{g};
  std::unordered_set<DependencyMatrix, MatrixHash> seen{g};
  const std::size_t n = g.num_tasks();

  while (!frontier.empty() && budget > 0) {
    std::vector<DependencyMatrix> next;
    for (const DependencyMatrix& m : frontier) {
      for (std::size_t a = 0; a < n && budget > 0; ++a) {
        for (std::size_t b = 0; b < n && budget > 0; ++b) {
          if (a == b) continue;
          for (DepValue lower : dep_lower_covers(m.at(a, b))) {
            DependencyMatrix c = m;
            c.set(a, b, lower);
            if (!seen.insert(c).second) continue;
            if (budget > 0) --budget;
            if (!matches_period(c, negative)) {
              if (matches_all(c, positives)) found.push_back(std::move(c));
              // Rejecting the negative: stop descending this branch.
              // This keeps the found set maximally general along each
              // path; because matching is not monotone in the stipulated
              // lattice, a deeper node below a positive-failing c could in
              // principle match again — the boundary is best-effort there
              // (see header comment).
            } else {
              next.push_back(std::move(c));
            }
          }
        }
      }
    }
    frontier = std::move(next);
  }
  return found;
}

/// Keep only maximal elements (for the general boundary).
void prune_non_maximal(std::vector<DependencyMatrix>& ms) {
  std::vector<DependencyMatrix> unique;  // keep-first value dedup
  for (DependencyMatrix& m : ms) {
    if (std::find(unique.begin(), unique.end(), m) == unique.end()) {
      unique.push_back(std::move(m));
    }
  }
  // Maximal elements only: a member goes when it sits strictly under
  // another.
  erase_dominated(unique, [](const DependencyMatrix& hi,
                             const DependencyMatrix& lo) {
    return lo.leq(hi) && lo != hi;
  });
  ms = std::move(unique);
}

}  // namespace

bool VersionSpaceResult::admits(const DependencyMatrix& h) const {
  bool above_specific = false;
  for (const auto& s : specific) {
    if (s.leq(h)) {
      above_specific = true;
      break;
    }
  }
  if (!above_specific) return false;
  for (const auto& g : general) {
    if (h.leq(g)) return true;
  }
  return false;
}

VersionSpaceResult learn_version_space(const Trace& positives,
                                       const Trace& negatives,
                                       const VersionSpaceConfig& config) {
  BBMG_REQUIRE(positives.num_tasks() == negatives.num_tasks() ||
                   negatives.num_periods() == 0,
               "positive and negative traces must share the task set");
  const std::size_t n = positives.num_tasks();

  VersionSpaceResult result;

  // Specific boundary: the paper's exact learner on the positives.
  ExactConfig exact_cfg;
  exact_cfg.max_frontier = config.max_frontier;
  result.specific = learn_exact(positives, exact_cfg).hypotheses;

  // General boundary: specialize the top against each negative period.
  std::vector<PeriodCandidates> positive_pcs;
  positive_pcs.reserve(positives.num_periods());
  for (const auto& p : positives.periods()) positive_pcs.emplace_back(p, n);

  result.general = {DependencyMatrix::top(n)};
  for (const auto& neg : negatives.periods()) {
    const PeriodCandidates pc(neg, n);
    std::vector<DependencyMatrix> next;
    for (const DependencyMatrix& g : result.general) {
      if (!matches_period(g, pc)) {
        next.push_back(g);
        continue;
      }
      auto specialized = specialize_against(g, pc, positive_pcs, 50000);
      for (auto& s : specialized) next.push_back(std::move(s));
    }
    prune_non_maximal(next);
    if (next.size() > config.max_general) next.resize(config.max_general);
    result.general = std::move(next);
    if (result.general.empty()) break;  // collapsed
  }

  // Candidate elimination on the specific side: a hypothesis that matches
  // a forbidden period is inconsistent regardless of the boundary shape.
  std::vector<PeriodCandidates> negative_pcs;
  negative_pcs.reserve(negatives.num_periods());
  for (const auto& p : negatives.periods()) negative_pcs.emplace_back(p, n);
  std::erase_if(result.specific, [&](const DependencyMatrix& s) {
    for (const auto& pc : negative_pcs) {
      if (matches_period(s, pc)) return true;
    }
    return false;
  });

  // Version-space consistency: every specific member must sit below some
  // general member and vice versa.
  std::erase_if(result.specific, [&](const DependencyMatrix& s) {
    return std::none_of(result.general.begin(), result.general.end(),
                        [&](const DependencyMatrix& g) { return s.leq(g); });
  });
  std::erase_if(result.general, [&](const DependencyMatrix& g) {
    return std::none_of(result.specific.begin(), result.specific.end(),
                        [&](const DependencyMatrix& s) { return s.leq(g); });
  });

  std::sort(result.specific.begin(), result.specific.end(),
            [](const DependencyMatrix& a, const DependencyMatrix& b) {
              return a.weight() < b.weight();
            });
  std::sort(result.general.begin(), result.general.end(),
            [](const DependencyMatrix& a, const DependencyMatrix& b) {
              return a.weight() > b.weight();
            });
  return result;
}

}  // namespace bbmg
