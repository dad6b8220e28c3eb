#include "reference/reference_learner.hpp"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "common/error.hpp"

namespace bbmg::reference {

// -- post-processing (paper §3.1) --------------------------------------------

void weaken_unmet_requirements(Hypothesis& h, const PeriodCandidates& pc) {
  const std::size_t n = h.d.num_tasks();
  for (std::size_t a = 0; a < n; ++a) {
    if (!pc.executed(a)) continue;
    for (std::size_t b = 0; b < n; ++b) {
      if (a == b || pc.executed(b)) continue;
      DepValue v = h.d.at(a, b);
      if (dep_requires_forward(v)) v = dep_weaken_forward_requirement(v);
      if (dep_requires_backward(v)) v = dep_weaken_backward_requirement(v);
      if (v != h.d.at(a, b)) h.d.set(a, b, v);
    }
  }
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

void remove_duplicates_and_redundant(std::vector<Hypothesis>& frontier) {
  // Keep the first of every group of equal hypotheses.
  std::unordered_set<std::uint64_t> seen_hashes;
  std::vector<Hypothesis> unique;
  unique.reserve(frontier.size());
  for (auto& h : frontier) {
    const std::uint64_t hash = h.hash();
    if (seen_hashes.contains(hash)) {
      bool dup = false;
      for (const auto& u : unique) {
        if (u.hash() == hash && u == h) {
          dup = true;
          break;
        }
      }
      if (dup) continue;
    }
    seen_hashes.insert(hash);
    unique.push_back(std::move(h));
  }

  // Drop h when some other distinct h' in the set has h' <= h.
  std::vector<bool> redundant(unique.size(), false);
  for (std::size_t i = 0; i < unique.size(); ++i) {
    if (redundant[i]) continue;
    for (std::size_t j = 0; j < unique.size(); ++j) {
      if (i == j || redundant[j]) continue;
      if (unique[j].d.leq(unique[i].d) && unique[j].d != unique[i].d) {
        redundant[i] = true;
        break;
      }
    }
  }

  std::vector<Hypothesis> out;
  out.reserve(unique.size());
  for (std::size_t i = 0; i < unique.size(); ++i) {
    if (!redundant[i]) out.push_back(std::move(unique[i]));
  }
  frontier = std::move(out);
}

void post_process_period(std::vector<Hypothesis>& frontier,
                         const PeriodCandidates& pc) {
  for (auto& h : frontier) {
    weaken_unmet_requirements(h, pc);
    h.used.clear();
  }
  remove_duplicates_and_redundant(frontier);
}

// -- bounded heuristic (paper §3.2) ------------------------------------------

namespace {

struct Scored {
  Hypothesis h;
  std::uint64_t weight;
};

/// Weight-ascending list; past the bound the two least-weight members are
/// merged into their LUB with the union of their assumption sets.
class BoundedList {
 public:
  BoundedList(std::size_t bound, LearnStats& stats)
      : bound_(bound), stats_(stats) {}

  [[nodiscard]] bool empty() const { return items_.empty(); }

  void add(Hypothesis h) {
    Scored scored{std::move(h), 0};
    scored.weight = scored.h.d.weight();
    if (is_duplicate(scored)) return;
    insert_sorted(std::move(scored));
    while (items_.size() > bound_) merge_two_least();
  }

  std::vector<Hypothesis> take() {
    std::vector<Hypothesis> out;
    out.reserve(items_.size());
    for (auto& s : items_) out.push_back(std::move(s.h));
    items_.clear();
    return out;
  }

 private:
  [[nodiscard]] bool is_duplicate(const Scored& s) const {
    for (const Scored& x : items_) {
      if (x.weight == s.weight && x.h == s.h) return true;
    }
    return false;
  }

  void insert_sorted(Scored s) {
    auto it = std::upper_bound(
        items_.begin(), items_.end(), s.weight,
        [](std::uint64_t w, const Scored& x) { return w < x.weight; });
    items_.insert(it, std::move(s));
  }

  void merge_two_least() {
    BBMG_ASSERT(items_.size() >= 2, "merge requires two hypotheses");
    Scored a = std::move(items_[0]);
    Scored b = std::move(items_[1]);
    items_.erase(items_.begin(), items_.begin() + 2);
    Hypothesis merged(a.h.d.lub(b.h.d), std::move(a.h.used));
    merged.used.unite(b.h.used);
    ++stats_.merges;
    Scored scored{std::move(merged), 0};
    scored.weight = scored.h.d.weight();
    if (is_duplicate(scored)) return;
    insert_sorted(std::move(scored));
  }

  std::size_t bound_;
  LearnStats& stats_;
  std::vector<Scored> items_;
};

}  // namespace

BoundedLearner::BoundedLearner(std::size_t num_tasks, std::size_t bound)
    : num_tasks_(num_tasks), bound_(bound), history_(num_tasks) {
  frontier_.emplace_back(num_tasks);
  stats_.peak_hypotheses = 1;
}

void BoundedLearner::observe_period(const Period& period) {
  const PeriodCandidates pc(period, num_tasks_);
  for (std::size_t msg = 0; msg < pc.num_messages(); ++msg) {
    ++stats_.messages_processed;
    BoundedList list(bound_, stats_);
    for (const Hypothesis& h : frontier_) {
      for (const CandidatePair& p : pc.candidates(msg)) {
        if (h.pair_used(p)) continue;
        Hypothesis child = h;
        child.assume(p, history_);
        ++stats_.hypotheses_created;
        list.add(std::move(child));
      }
    }
    if (list.empty()) {
      ++stats_.unexplained_messages;  // keep the frontier unchanged
    } else {
      frontier_ = list.take();
    }
    stats_.peak_hypotheses = std::max(stats_.peak_hypotheses, frontier_.size());
  }
  post_process_period(frontier_, pc);
  ++stats_.periods_processed;
  stats_.frontier_after_period.push_back(frontier_.size());
  history_.record_period(pc);
}

void BoundedLearner::observe_quarantined_period(
    const std::vector<bool>& observed) {
  history_.record_untrusted_period(observed);
  for (auto& h : frontier_) weaken_possibly_unmet_requirements(h, observed);
  remove_duplicates_and_redundant(frontier_);
  ++stats_.quarantined_periods;
}

// -- exact learner (paper §3.1) ----------------------------------------------

namespace {

/// Insert h into out unless an equal (matrix, assumptions) state exists;
/// `index` maps hash -> indices into out.
void insert_deduped(
    std::vector<Hypothesis>& out,
    std::unordered_map<std::uint64_t, std::vector<std::size_t>>& index,
    Hypothesis h) {
  const std::uint64_t hash = h.hash();
  auto it = index.find(hash);
  if (it != index.end()) {
    for (std::size_t i : it->second) {
      if (out[i] == h) return;
    }
    it->second.push_back(out.size());
  } else {
    index.emplace(hash, std::vector<std::size_t>{out.size()});
  }
  out.push_back(std::move(h));
}

}  // namespace

ExactLearner::ExactLearner(std::size_t num_tasks, std::size_t max_frontier)
    : num_tasks_(num_tasks), max_frontier_(max_frontier), history_(num_tasks) {
  frontier_.emplace_back(num_tasks);
  stats_.peak_hypotheses = 1;
}

void ExactLearner::observe_period(const Period& period) {
  const std::size_t period_no = stats_.periods_processed + 1;
  const PeriodCandidates pc(period, num_tasks_);
  for (std::size_t msg = 0; msg < pc.num_messages(); ++msg) {
    ++stats_.messages_processed;
    std::vector<Hypothesis> next;
    std::unordered_map<std::uint64_t, std::vector<std::size_t>> index;
    next.reserve(frontier_.size());
    for (const Hypothesis& h : frontier_) {
      for (const CandidatePair& p : pc.candidates(msg)) {
        if (h.pair_used(p)) continue;
        Hypothesis child = h;
        child.assume(p, history_);
        ++stats_.hypotheses_created;
        insert_deduped(next, index, std::move(child));
      }
    }
    if (next.empty()) {
      raise("exact learner: hypothesis set became empty at period " +
            std::to_string(period_no) + ", message " + std::to_string(msg) +
            " — the trace violates the MoC assumptions or the "
            "generalization language cannot express it");
    }
    if (next.size() > max_frontier_) {
      raise("exact learner: hypothesis set exceeded max_frontier (" +
            std::to_string(max_frontier_) + ") at period " +
            std::to_string(period_no) +
            " — use the heuristic learner for this trace");
    }
    stats_.peak_hypotheses = std::max(stats_.peak_hypotheses, next.size());
    frontier_ = std::move(next);
  }
  post_process_period(frontier_, pc);
  ++stats_.periods_processed;
  stats_.frontier_after_period.push_back(frontier_.size());
  history_.record_period(pc);
}

std::vector<Matrix> ExactLearner::matrices() const {
  std::vector<Matrix> out;
  for (const auto& h : frontier_) out.push_back(h.d);
  std::sort(out.begin(), out.end(), [](const Matrix& a, const Matrix& b) {
    return a.weight() < b.weight();
  });
  return out;
}

}  // namespace bbmg::reference
