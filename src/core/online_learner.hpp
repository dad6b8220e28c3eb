// Streaming variant of the bounded heuristic learner (§3.2).
//
// The batch API (learn_heuristic) assumes the whole trace is on disk; in
// the intended deployment the logging device delivers periods one at a
// time, and the integrator wants the current dependency model after every
// period — e.g. to stop tracing once the learner has converged, or to
// monitor a live system against the model learned so far.  OnlineLearner
// exposes exactly the per-period step of the algorithm; feeding it every
// period of a trace reproduces learn_heuristic bit for bit (tested).
#pragma once

#include <vector>

#include "core/candidates.hpp"
#include "core/history.hpp"
#include "core/hypothesis.hpp"
#include "core/learn_result.hpp"
#include "trace/binary_codec.hpp"
#include "trace/trace.hpp"

namespace bbmg {

class VersionSpaceStats;

struct OnlineConfig {
  /// Maximum number of hypotheses kept (the paper's bound); >= 1.
  std::size_t bound = 16;
};

class OnlineLearner {
 public:
  OnlineLearner(std::size_t num_tasks, const OnlineConfig& config);

  /// Run one full period of the algorithm: message-guided generalization
  /// over the period's candidate sets, then period-end post-processing.
  void observe_period(const Period& period);

  /// Degradation hook for corrupt input (src/robust): a period arrived but
  /// its events could not be trusted, so no generalization is performed.
  /// `observed` flags tasks with surviving execution evidence (a subset of
  /// the tasks that truly ran under the sanitizer's fault model).  Every
  /// requirement claim d(a,b) whose b is unobserved is weakened to its
  /// conditional form, and the co-execution history is poisoned the same
  /// way so a claim raised by a *later* message stays conditional too —
  /// this is what keeps the learned model from asserting a dependency the
  /// skipped (clean) period would refute.
  void observe_quarantined_period(const std::vector<bool>& observed);

  /// The current hypothesis set (post-processed, weight-ascending).
  [[nodiscard]] const std::vector<Hypothesis>& hypotheses() const {
    return frontier_;
  }
  [[nodiscard]] bool converged() const { return frontier_.size() == 1; }
  [[nodiscard]] const LearnStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t num_tasks() const { return num_tasks_; }

  /// Copy out matrices + stats in the batch-result shape.  Without
  /// `with_history` the copy leaves stats.frontier_after_period empty, so
  /// it costs O(frontier) instead of O(frontier + periods).
  [[nodiscard]] LearnResult snapshot(bool with_history = true) const;

  /// Attach a live version-space stats sink (core/vspace_stats.hpp): the
  /// branching loop feeds per-message branching/scan histograms and every
  /// period updates the frontier size/bytes.  Not owned; null detaches.
  /// The sink must outlive the learner — the robust learner owns it behind
  /// a stable heap allocation and re-attaches after moves/restores.
  void set_vspace_stats(VersionSpaceStats* stats) { vspace_stats_ = stats; }

  /// Estimated heap bytes held by the current frontier (matrix cells +
  /// assumption-bitset words + object headers; hypotheses share one shape,
  /// so this is per-hypothesis cost x frontier size).
  [[nodiscard]] std::uint64_t approx_frontier_bytes() const;

  // -- durable state codec (src/durable snapshot files) --------------------
  //
  // The full mutable state of the learner — co-execution history, frontier
  // hypotheses with their assumption bitsets, and accumulated stats — as a
  // little-endian byte stream.  decode_state(encode_state(L)) is
  // behaviourally identical to L: feeding both the same subsequent periods
  // yields byte-identical hypothesis sets (the crash-recovery determinism
  // property).  Decoding validates sizes against the binary-codec sanity
  // caps and throws bbmg::Error on malformed input.
  void encode_state(std::vector<std::uint8_t>& out) const;
  [[nodiscard]] static OnlineLearner decode_state(ByteReader& r);

 private:
  std::size_t num_tasks_;
  OnlineConfig config_;
  CoExecutionHistory history_;
  std::vector<Hypothesis> frontier_;
  LearnStats stats_;
  /// Live introspection sink (null = detached); deliberately excluded from
  /// the durable state codec — it is a process-local wiring, not state.
  VersionSpaceStats* vspace_stats_{nullptr};
};

}  // namespace bbmg
