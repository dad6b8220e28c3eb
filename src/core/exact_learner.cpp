#include "core/exact_learner.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "core/history.hpp"
#include "core/hypothesis.hpp"
#include "core/learner_metrics.hpp"
#include "core/post_process.hpp"
#include "obs/span.hpp"

namespace bbmg {

namespace {

/// The O(k^2) dominance scan is only applied while the frontier is at most
/// this large.
constexpr std::size_t kDominanceLimit = 4096;

}  // namespace

LearnResult learn_exact(const Trace& trace, const ExactConfig& config) {
  const std::size_t n = trace.num_tasks();
  BBMG_REQUIRE(n >= 1, "trace has no tasks");

  Stopwatch watch;
  LearnResult result;
  LearnStats& stats = result.stats;

  std::vector<Hypothesis> frontier;
  frontier.emplace_back(n);  // D0 = { d_bot }
  stats.peak_hypotheses = 1;

  CoExecutionHistory history(n);

  LearnerMetrics& metrics = LearnerMetrics::get();
  std::size_t period_no = 0;
  for (const auto& period : trace.periods()) {
    ++period_no;
    obs::Span span(&metrics.period_latency_us, "learner.exact_period");
    const std::uint64_t created0 = stats.hypotheses_created;
    std::uint64_t pruned = 0;
    const PeriodCandidates pc(period, n);

    for (std::size_t msg = 0; msg < pc.num_messages(); ++msg) {
      ++stats.messages_processed;
      const auto cands = pc.candidates(msg);

      std::vector<Hypothesis> next;
      HypothesisIndex index;
      next.reserve(frontier.size());

      for (const Hypothesis& h : frontier) {
        for (const CandidatePair& p : cands) {
          if (h.pair_used(p)) continue;
          Hypothesis child = h;
          child.assume(p, history);
          ++stats.hypotheses_created;
          insert_unique(next, index, std::move(child));
        }
      }

      if (next.empty()) {
        raise("exact learner: hypothesis set became empty at period " +
              std::to_string(period_no) + ", message " + std::to_string(msg) +
              " — the trace violates the MoC assumptions or the "
              "generalization language cannot express it");
      }
      if (next.size() > config.max_frontier) {
        raise("exact learner: hypothesis set exceeded max_frontier (" +
              std::to_string(config.max_frontier) + ") at period " +
              std::to_string(period_no) +
              " — use the heuristic learner for this trace");
      }
      stats.peak_hypotheses = std::max(stats.peak_hypotheses, next.size());
      frontier = std::move(next);
      if (config.dominance_pruning && frontier.size() <= kDominanceLimit) {
        const std::size_t before = frontier.size();
        // Drop every hypothesis dominated by another (see
        // ExactConfig::dominance_pruning).
        erase_dominated(frontier, [](const Hypothesis& lo,
                                     const Hypothesis& hi) {
          return lo.d.leq(hi.d) && lo.used.is_subset_of(hi.used) &&
                 !(lo == hi);
        });
        pruned += before - frontier.size();
      }
    }

    post_process_period(frontier, pc);
    ++stats.periods_processed;
    stats.frontier_after_period.push_back(frontier.size());
    history.record_period(pc);

    metrics.periods.inc();
    metrics.messages.inc(pc.num_messages());
    metrics.branched.inc(stats.hypotheses_created - created0);
    metrics.pruned.inc(pruned);
    metrics.version_space_peak.set_max(
        static_cast<std::int64_t>(stats.peak_hypotheses));
  }

  result.hypotheses.reserve(frontier.size());
  for (auto& h : frontier) result.hypotheses.push_back(std::move(h.d));
  std::sort(result.hypotheses.begin(), result.hypotheses.end(),
            [](const DependencyMatrix& a, const DependencyMatrix& b) {
              return a.weight() < b.weight();
            });
  stats.wall_seconds = watch.elapsed_seconds();
  return result;
}

}  // namespace bbmg
