#include "robust/robust_online_learner.hpp"

#include <cstdio>

#include "common/error.hpp"
#include "obs/alloc_track.hpp"
#include "robust/robust_metrics.hpp"

namespace bbmg {

std::string_view health_state_name(HealthState s) {
  switch (s) {
    case HealthState::OK:
      return "OK";
    case HealthState::Degraded:
      return "DEGRADED";
    case HealthState::Failed:
      return "FAILED";
  }
  return "?";
}

RobustOnlineLearner::RobustOnlineLearner(std::vector<std::string> task_names,
                                         RobustConfig config)
    : config_(config),
      sanitizer_(std::move(task_names), config.sanitize),
      vspace_(std::make_shared<VersionSpaceStats>()),
      learner_(sanitizer_.task_names().size(), config.online) {
  BBMG_REQUIRE(config_.degraded_threshold <= config_.failed_threshold,
               "degraded threshold must not exceed failed threshold");
  learner_.set_vspace_stats(vspace_.get());
}

bool RobustOnlineLearner::observe_raw_period(const std::vector<Event>& events) {
  RobustMetrics& metrics = RobustMetrics::get();
  // Charge this observe's heap churn (sanitize + learn) to the version
  // space; three thread-local loads per read, zero with tracking off.
  const obs::AllocCounters alloc0 = obs::thread_alloc_counters();
  struct AllocCharge {
    VersionSpaceStats& vs;
    obs::AllocCounters begin;
    ~AllocCharge() {
      const obs::AllocCounters d =
          obs::alloc_delta(begin, obs::thread_alloc_counters());
      vs.on_alloc(d.bytes, d.count);
    }
  } charge{*vspace_, alloc0};
  SanitizedPeriod sp = sanitizer_.sanitize_period(events, seen_);
  ++seen_;
  repairs_ += sp.repairs;
  defects_.insert(defects_.end(), sp.defects.begin(), sp.defects.end());
  metrics.periods.inc();
  metrics.repairs.inc(sp.repairs);
  for (const Defect& d : sp.defects) metrics.defect(d.kind).inc();
  if (!sp.quarantined()) {
    try {
      learner_.observe_period(*sp.period);
      note_health_transition();
      return true;
    } catch (const Error&) {
      // A repaired period the learner still chokes on: degrade, don't die.
      defects_.push_back(
          Defect{DefectKind::ResidualViolation, seen_ - 1, 0, false});
      metrics.defect(DefectKind::ResidualViolation).inc();
    }
  }
  ++quarantined_;
  metrics.quarantined.inc();
  learner_.observe_quarantined_period(sp.observed_tasks);
  note_health_transition();
  return false;
}

void RobustOnlineLearner::note_health_transition() {
  const HealthState now = health();
  if (now == last_health_) return;
  RobustMetrics::get().health_transition(now).inc();
  last_health_ = now;
}

double RobustOnlineLearner::quarantine_rate() const {
  return seen_ == 0 ? 0.0
                    : static_cast<double>(quarantined_) /
                          static_cast<double>(seen_);
}

HealthState RobustOnlineLearner::health() const {
  if (seen_ < config_.min_periods_for_health) return HealthState::OK;
  const double rate = quarantine_rate();
  if (rate >= config_.failed_threshold) return HealthState::Failed;
  if (rate >= config_.degraded_threshold) return HealthState::Degraded;
  return HealthState::OK;
}

RobustSnapshot RobustOnlineLearner::full_snapshot() const {
  RobustSnapshot snap;
  snap.result = learner_.snapshot(/*with_history=*/false);
  snap.health = health();
  snap.periods_seen = seen_;
  snap.periods_learned = periods_learned();
  snap.periods_quarantined = quarantined_;
  snap.repairs = repairs_;
  return snap;
}

// Decode-side cap: a garbage defect count must not drive a huge
// allocation.  Real defect logs are bounded by the period count.
namespace {
constexpr std::size_t kMaxStateDefects = 1u << 26;
}  // namespace

void RobustOnlineLearner::encode_state(std::vector<std::uint8_t>& out) const {
  append_u64(out, seen_);
  append_u64(out, quarantined_);
  append_u64(out, repairs_);
  append_u8(out, static_cast<std::uint8_t>(last_health_));
  append_u32(out, static_cast<std::uint32_t>(defects_.size()));
  for (const Defect& d : defects_) {
    append_u8(out, static_cast<std::uint8_t>(d.kind));
    append_u64(out, d.period_index);
    append_u64(out, d.event_index);
    append_u8(out, d.repaired ? 1 : 0);
  }
  learner_.encode_state(out);
}

RobustOnlineLearner RobustOnlineLearner::decode_state(
    std::vector<std::string> task_names, const RobustConfig& config,
    ByteReader& r) {
  RobustOnlineLearner rl(std::move(task_names), config);
  rl.seen_ = r.read_u64();
  rl.quarantined_ = r.read_u64();
  rl.repairs_ = r.read_u64();
  if (rl.quarantined_ > rl.seen_) {
    raise("robust state: quarantined exceeds seen");
  }
  const std::uint8_t health = r.read_u8();
  if (health > static_cast<std::uint8_t>(HealthState::Failed)) {
    raise("robust state: invalid health state");
  }
  rl.last_health_ = static_cast<HealthState>(health);
  // Per defect: kind u8, period and event u64, repaired u8.
  const std::uint32_t ndefects = r.read_count(
      kMaxStateDefects, 1 + 8 + 8 + 1,
      "robust state: defect count out of range");
  rl.defects_.clear();
  rl.defects_.reserve(ndefects);
  for (std::uint32_t i = 0; i < ndefects; ++i) {
    Defect d;
    const std::uint8_t kind = r.read_u8();
    if (kind >= kNumDefectKinds) raise("robust state: invalid defect kind");
    d.kind = static_cast<DefectKind>(kind);
    d.period_index = r.read_u64();
    d.event_index = r.read_u64();
    d.repaired = r.read_u8() != 0;
    rl.defects_.push_back(d);
  }
  OnlineLearner restored = OnlineLearner::decode_state(r);
  if (restored.num_tasks() != rl.learner_.num_tasks()) {
    raise("robust state: task count mismatch with nested learner");
  }
  rl.learner_ = std::move(restored);
  // The restored learner carries a null stats pointer (wiring is not
  // state); re-attach the wrapper's live sink.
  rl.learner_.set_vspace_stats(rl.vspace_.get());
  return rl;
}

std::string RobustOnlineLearner::health_summary() const {
  char buf[192];
  const double learned_pct =
      seen_ == 0 ? 100.0 : 100.0 * (1.0 - quarantine_rate());
  std::snprintf(buf, sizeof(buf),
                "model learned from %.1f%% of periods, %.1f%% quarantined "
                "(%zu of %zu periods, %zu repairs; health: %s)",
                learned_pct, 100.0 * quarantine_rate(), quarantined_, seen_,
                repairs_, std::string(health_state_name(health())).c_str());
  return buf;
}

}  // namespace bbmg
