#include "serve/session.hpp"

#include "obs/span.hpp"
#include "obs/trace_context.hpp"
#include "serve/serve_metrics.hpp"

namespace bbmg {

LearningSession::LearningSession(SessionId id,
                                 std::vector<std::string> task_names,
                                 SessionConfig config)
    : id_(id),
      task_names_(std::move(task_names)),
      config_(config),
      learner_(task_names_, config.robust) {
  if (config_.snapshot_interval == 0) config_.snapshot_interval = 1;
  snapshot_ = std::make_shared<const RobustSnapshot>(learner_.full_snapshot());
}

LearningSession::LearningSession(SessionId id,
                                 std::vector<std::string> task_names,
                                 SessionConfig config,
                                 RestoredSessionState restored)
    : id_(id),
      task_names_(std::move(task_names)),
      config_(config),
      learner_(std::move(restored.learner)) {
  if (config_.snapshot_interval == 0) config_.snapshot_interval = 1;
  // Seed the accounting so accepted == processed == the recovered seq:
  // drain() is immediately satisfied and the next applied period lands at
  // seq + 1, exactly where the pre-crash session would have put it.
  accepted_.add(restored.seq);
  processed_ = static_cast<std::size_t>(restored.seq);
  last_enqueued_seq_.store(restored.seq, std::memory_order_relaxed);
  stream_stats_.restore(restored.stats);
  snapshot_ = std::make_shared<const RobustSnapshot>(learner_.full_snapshot());
}

bool LearningSession::claim_seq(std::uint64_t seq) {
  std::uint64_t cur = last_enqueued_seq_.load(std::memory_order_relaxed);
  for (;;) {
    if (seq <= cur) return false;  // duplicate of an already-claimed period
    if (last_enqueued_seq_.compare_exchange_weak(cur, seq,
                                                 std::memory_order_relaxed)) {
      return true;
    }
  }
}

void LearningSession::release_seq(std::uint64_t seq) {
  std::uint64_t expected = seq;
  (void)last_enqueued_seq_.compare_exchange_strong(expected, seq - 1,
                                                   std::memory_order_relaxed);
}

std::uint64_t LearningSession::flush_durable() {
  if (store_) return store_->flush();
  return static_cast<std::uint64_t>(processed());
}

void LearningSession::checkpoint() {
  // A failed session's learner may be mid-mutation; snapshotting it would
  // persist (and later replay from) state no uninterrupted run produces.
  if (!store_ || failed()) return;
  store_->write_snapshot(static_cast<std::uint64_t>(processed()), learner_,
                         stream_stats_.summary());
}

void LearningSession::mark_failed() {
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    failed_.store(true, std::memory_order_release);
  }
  // Wake drain()ers: the period that failed will never be processed.
  drained_.notify_all();
}

void LearningSession::set_ship_hook(std::shared_ptr<const ShipHook> hook) {
  std::lock_guard<std::mutex> lock(state_mu_);
  ship_hook_ = std::move(hook);
}

void LearningSession::drain() {
  std::unique_lock<std::mutex> lock(state_mu_);
  drained_.wait(lock, [&] {
    return failed_.load(std::memory_order_relaxed) ||
           processed_ >= accepted_.value();
  });
}

void LearningSession::process(const std::vector<Event>& period_events,
                              std::uint64_t enqueue_ns) {
  // WAL-before-apply: the period is on disk (modulo group-commit fsync)
  // before the learner's state reflects it, so replay can always rebuild
  // the applied prefix.  processed_ is only written by this worker, so
  // the unlocked read is race-free.
  const std::uint64_t seq = static_cast<std::uint64_t>(processed_) + 1;
  if (store_) store_->append_period(seq, period_events);
  // Replication tap, after the local WAL append so a shipped period is
  // always locally durable first (the follower can never be ahead of the
  // primary's own log), and before the completion publication so a
  // drain()-then-resume caller knows every drained period was offered to
  // the replicator.
  std::shared_ptr<const ShipHook> ship;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    ship = ship_hook_;
  }
  if (ship) (*ship)(static_cast<std::uint32_t>(id_.index()), seq,
                    period_events);
  // Attributed to the request's trace when the worker set a scope (the
  // WAL spans above record themselves the same way, inside the writer).
  const std::uint64_t apply_start = obs::now_ns();
  stream_stats_.observe_events(period_events);
  (void)learner_.observe_raw_period(period_events);
  obs::record_current_stage("server.apply", apply_start, obs::now_ns());
  ServeMetrics& metrics = ServeMetrics::get();
  metrics.periods_applied.inc();
  if (enqueue_ns != 0) {
    metrics.enqueue_apply_latency_us.observe((obs::now_ns() - enqueue_ns) /
                                             1000);
  }
  ++since_publish_;
  // processed_ is written only by this (the affine) worker, so reading it
  // without the lock here is race-free; the lock below orders the write.
  const std::size_t next = processed_ + 1;
  const bool backlog_empty = next >= accepted_.value();
  std::shared_ptr<const RobustSnapshot> snap;
  if (since_publish_ >= config_.snapshot_interval || backlog_empty) {
    // Snapshot construction copies the hypothesis set; build it before
    // taking the lock so a concurrent query is never stalled behind the
    // copy.  Storing it before processed_ becomes visible guarantees a
    // drain()-then-query caller sees the final model, not a stale one.
    snap = std::make_shared<const RobustSnapshot>(learner_.full_snapshot());
    since_publish_ = 0;
  }
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (snap) snapshot_ = std::move(snap);
    processed_ = next;
  }
  drained_.notify_all();
  // Periodic compaction after the period is fully visible: snapshot the
  // learner (still exclusively ours — same affine worker) and rotate the
  // WAL.  Crash windows are covered: before the snapshot rename the old
  // snapshot+WAL recover, after it the new snapshot does.
  if (store_ && store_->should_compact(seq)) {
    store_->write_snapshot(seq, learner_, stream_stats_.summary());
  }
}

std::shared_ptr<const RobustSnapshot> LearningSession::snapshot() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return snapshot_;
}

std::size_t LearningSession::processed() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return processed_;
}

}  // namespace bbmg
