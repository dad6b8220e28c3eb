// Fault-tolerant trace ingestion, layer 2: a degradation-aware wrapper
// around the streaming learner (core/online_learner.hpp).  Raw periods from
// the logging device flow through the TraceSanitizer; sanitized periods
// feed the learner, quarantined ones are skipped — but not silently:
//
//  * the learner's co-execution history and current hypotheses are
//    conservatively weakened against the quarantined period's observed-task
//    mask (OnlineLearner::observe_quarantined_period), so the learned model
//    never asserts an unconditional dependency that the skipped clean
//    period could refute (the soundness property bench_robustness and the
//    fault-injection tests check);
//  * a health state (OK / DEGRADED / FAILED, by quarantine-rate thresholds)
//    is tracked and exposed, so a conformance monitor can report "model
//    learned from 97% of periods, 3% quarantined" instead of crashing —
//    or stop trusting the model altogether when ingestion has failed.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/online_learner.hpp"
#include "core/vspace_stats.hpp"
#include "robust/sanitizer.hpp"

namespace bbmg {

enum class HealthState : std::uint8_t {
  OK,        // quarantine rate below the degraded threshold
  Degraded,  // elevated quarantine rate; model still usable, coverage down
  Failed,    // most input is being quarantined; do not trust the model
};

[[nodiscard]] std::string_view health_state_name(HealthState s);

/// Everything a consumer needs to publish the learner's state at one
/// instant: the model (hypotheses + stats), the health verdict, and the
/// ingestion accounting.  This is the unit src/serve copies out per period
/// (copy-on-snapshot) and serves to queries — an immutable value, detached
/// from the learner that produced it.  result.stats.frontier_after_period
/// is left empty: that history grows by one entry per period, no query
/// reads it, and a session publishes after every period, so copying it
/// made each publication O(periods seen).
struct RobustSnapshot {
  LearnResult result;
  HealthState health{HealthState::OK};
  std::size_t periods_seen{0};
  std::size_t periods_learned{0};
  std::size_t periods_quarantined{0};
  std::size_t repairs{0};
};

struct RobustConfig {
  OnlineConfig online;
  SanitizeConfig sanitize;
  /// Quarantine-rate thresholds for the health state.
  double degraded_threshold{0.05};
  double failed_threshold{0.50};
  /// Health stays OK until this many periods have been seen (a single
  /// quarantined period among the first few is not a trend).
  std::size_t min_periods_for_health{8};
};

class RobustOnlineLearner {
 public:
  explicit RobustOnlineLearner(std::vector<std::string> task_names,
                               RobustConfig config = {});

  /// Sanitize one raw period and either learn from it or quarantine it.
  /// Returns true iff the period was learned from.  Never throws on
  /// corrupt input (policy Repair/Quarantine); a defensive catch degrades
  /// internal surprises to a quarantine as well.
  bool observe_raw_period(const std::vector<Event>& events);

  [[nodiscard]] HealthState health() const;
  [[nodiscard]] double quarantine_rate() const;
  [[nodiscard]] std::size_t periods_seen() const { return seen_; }
  [[nodiscard]] std::size_t periods_learned() const {
    return seen_ - quarantined_;
  }
  [[nodiscard]] std::size_t periods_quarantined() const {
    return quarantined_;
  }
  [[nodiscard]] std::size_t repairs() const { return repairs_; }
  [[nodiscard]] const std::vector<Defect>& defects() const {
    return defects_;
  }
  [[nodiscard]] const OnlineLearner& learner() const { return learner_; }
  [[nodiscard]] const RobustConfig& config() const { return config_; }

  /// Copy out matrices + stats in the batch-result shape (includes the
  /// quarantined_periods stat).  Soundness note (DESIGN.md "Noise model &
  /// degradation semantics"): every period the sanitizer *flags* is either
  /// repaired execution-faithfully or quarantined with conservative
  /// weakening + history poisoning, so no claim refuted by a flagged clean
  /// period survives.  The residual blind spot is corruption below the
  /// sanitizer's detection floor — e.g. both edges of one execution
  /// silently dropped in an otherwise clean period — whose probability is
  /// quadratic in the per-event fault rate.
  [[nodiscard]] LearnResult snapshot() const { return learner_.snapshot(); }

  /// snapshot() plus health and quarantine accounting in one consistent
  /// copy; the serve layer's publication hook.  Leaves out the per-period
  /// history (see RobustSnapshot); learner().stats() still has it.
  [[nodiscard]] RobustSnapshot full_snapshot() const;

  /// Live version-space introspection, sampled inside observe: frontier
  /// size/bytes per period, branching/scan histograms per message, and the
  /// heap churn each observe charged.  Built on always-on atomics, so this
  /// is safe to call from any thread while the owning worker learns (the
  /// VspaceRequest handler does exactly that) and keeps working with
  /// BBMG_OBS=OFF.
  [[nodiscard]] VspaceSnapshot vspace_snapshot() const {
    return vspace_->snapshot();
  }

  /// One-line operator-facing account, e.g.
  /// "model learned from 97.0% of periods, 3.0% quarantined
  ///  (1 period, 4 repairs; health: OK)".
  [[nodiscard]] std::string health_summary() const;

  // -- durable state codec (src/durable snapshot files) --------------------
  //
  // Ingestion accounting, the defect log, and the wrapped learner's full
  // state as a little-endian byte stream.  decode_state restores a learner
  // that continues byte-identically to the encoded one; the sanitizer is
  // stateless and is rebuilt from (task_names, config).  Throws
  // bbmg::Error on malformed input.
  void encode_state(std::vector<std::uint8_t>& out) const;
  [[nodiscard]] static RobustOnlineLearner decode_state(
      std::vector<std::string> task_names, const RobustConfig& config,
      ByteReader& r);

 private:
  /// Count a health-state change into the transition metrics (called after
  /// every raw period; no-op while the state is stable).
  void note_health_transition();

  RobustConfig config_;
  TraceSanitizer sanitizer_;
  /// Heap-allocated so its address is stable across moves of this object
  /// (the inner learner holds a raw pointer to it; VersionSpaceStats
  /// itself is atomics and cannot move).  Never null.
  std::shared_ptr<VersionSpaceStats> vspace_;
  OnlineLearner learner_;
  HealthState last_health_{HealthState::OK};
  std::size_t seen_{0};
  std::size_t quarantined_{0};
  std::size_t repairs_{0};
  std::vector<Defect> defects_;
};

}  // namespace bbmg
