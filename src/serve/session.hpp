// One learning session: the unit of sharding in the serve layer.
//
// A session owns a RobustOnlineLearner (lenient sanitizer + degradation
// tracking, src/robust) and is pinned to exactly one worker thread of the
// SessionManager — every process() call for a session happens on that
// worker, in submission order, so the learner needs no locking and its
// result is byte-identical to feeding the same periods to a single-threaded
// RobustOnlineLearner (the determinism test's property).
//
// Queries never touch the learner.  After each processed period the worker
// publishes an immutable RobustSnapshot behind a shared_ptr; a query just
// copies the pointer (copy-on-snapshot).  The consistency guarantee is
// prefix-exactness: a query sees the model that was exact for the first k
// periods the session accepted, for some k between 0 and everything
// processed so far — never a half-updated model.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "durable/store.hpp"
#include "obs/metrics.hpp"
#include "robust/robust_online_learner.hpp"
#include "trace/event.hpp"
#include "trace/stats.hpp"

namespace bbmg {

struct SessionTag {};
using SessionId = detail::StrongIndex<SessionTag>;

/// Replication tap (cluster::Replicator): called by the session's worker
/// right after a period's WAL append with (session id, applied seq, the
/// period's events).  May block briefly when the ship queue is full.
using ShipHook =
    std::function<void(std::uint32_t, std::uint64_t, const std::vector<Event>&)>;

struct SessionConfig {
  RobustConfig robust;
  /// Publish a fresh snapshot every N processed periods (1 = every period).
  /// Regardless of N, a snapshot is published when the session's backlog
  /// empties, so a drained session always serves its final model.
  std::size_t snapshot_interval{1};
};

/// Learner state carried from a durable::RecoveredSession into a restored
/// LearningSession: the replayed learner, stream-stats totals, and the
/// applied-period high-water mark.
struct RestoredSessionState {
  RobustOnlineLearner learner;
  StreamingTraceStats::Summary stats;
  std::uint64_t seq{0};
};

class LearningSession {
 public:
  LearningSession(SessionId id, std::vector<std::string> task_names,
                  SessionConfig config);

  /// Restore from a recovered snapshot+WAL state: the session continues
  /// exactly where the pre-crash one stopped (processed == seq, counters
  /// seeded, first published snapshot is the recovered model).
  LearningSession(SessionId id, std::vector<std::string> task_names,
                  SessionConfig config, RestoredSessionState restored);

  [[nodiscard]] SessionId id() const { return id_; }
  [[nodiscard]] const std::vector<std::string>& task_names() const {
    return task_names_;
  }
  [[nodiscard]] const SessionConfig& config() const { return config_; }

  // -- producer side (any thread) --

  /// Reserve an ingest slot before pushing to the worker queue; pairs with
  /// either the worker's process() or note_rejected() if the push failed.
  void note_submitted() { accepted_.add(1); }
  void note_rejected() {
    accepted_.sub(1);
    rejected_.add(1);
  }

  /// Block until every accepted period has been processed.  Callers invoke
  /// this after their own submissions returned, so the accepted count is
  /// stable from their perspective.
  void drain();

  // -- consumer side (the session's affine worker only) --

  /// Feed one raw period to the learner, update accounting, and publish a
  /// snapshot if the interval elapsed or the backlog just emptied.
  /// enqueue_ns (obs::now_ns() at submit; 0 = unknown) feeds the
  /// enqueue->apply latency histogram.  All metric updates land before the
  /// completion publication, so a drain()-then-snapshot reader observes
  /// the counters of everything it drained.
  void process(const std::vector<Event>& period_events,
               std::uint64_t enqueue_ns = 0);

  // -- query side (any thread) --

  /// Latest published snapshot; never null (an empty-model snapshot is
  /// published at construction).
  [[nodiscard]] std::shared_ptr<const RobustSnapshot> snapshot() const;

  [[nodiscard]] std::size_t accepted() const {
    return static_cast<std::size_t>(accepted_.value());
  }
  [[nodiscard]] std::size_t rejected() const {
    return static_cast<std::size_t>(rejected_.value());
  }
  [[nodiscard]] std::size_t processed() const;

  /// Streaming descriptive statistics of everything this session ingested
  /// (raw events, pre-sanitizer); readable from any thread.
  [[nodiscard]] StreamingTraceStats::Summary stream_stats() const {
    return stream_stats_.summary();
  }

  /// Live version-space introspection (VspaceRequest).  Readable from
  /// any thread while the worker learns: the stats block is stable-address
  /// lock-free atomics (see RobustOnlineLearner::vspace_snapshot).
  [[nodiscard]] VspaceSnapshot vspace() const {
    return learner_.vspace_snapshot();
  }

  /// Closed sessions refuse new submissions; in-flight periods still learn.
  void mark_closed() { closed_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool closed() const {
    return closed_.load(std::memory_order_relaxed);
  }

  /// Poison the session after a process() failure (WAL I/O error,
  /// oversized record, disk full): further submissions are refused with
  /// SubmitStatus::Failed, drain() stops waiting on the period that never
  /// completed, and queries keep serving the last published snapshot.
  /// Called by the worker that owns the session, which logs the cause; the
  /// learner may be in a partial state, which is why the session can never
  /// apply again.
  void mark_failed();
  [[nodiscard]] bool failed() const {
    return failed_.load(std::memory_order_acquire);
  }

  // -- durability (src/durable) --

  /// Attach the session's durable store.  Must happen before the first
  /// process() call (the manager attaches at open/recovery).
  void attach_store(std::shared_ptr<durable::SessionStore> store) {
    store_ = std::move(store);
  }
  [[nodiscard]] bool durable() const { return store_ != nullptr; }
  /// The attached store (null for in-memory sessions); the replicator
  /// reads its WAL path for gap fills.
  [[nodiscard]] const std::shared_ptr<durable::SessionStore>& store() const {
    return store_;
  }

  /// Install (or clear, with null) the replication tap.  Thread-safe with
  /// respect to a concurrently processing worker; periods already past
  /// their WAL append are not re-offered.
  void set_ship_hook(std::shared_ptr<const ShipHook> hook);

  /// Claim a client-assigned sequence number (monotone CAS).  Returns
  /// false when seq is at or below the current mark — an already-ingested
  /// duplicate from a client resend; the caller drops it idempotently.
  bool claim_seq(std::uint64_t seq);
  /// Undo the claim of `seq` after a failed enqueue (single producer per
  /// session, so the mark is still exactly `seq`).
  void release_seq(std::uint64_t seq);

  /// fsync the WAL tail and return the durable high-water mark (the
  /// processed count when the session runs without a store).  Callers
  /// drain() first so the mark covers everything already submitted.
  std::uint64_t flush_durable();

  /// Write a final snapshot at the current processed count (graceful
  /// shutdown).  Only call when no worker can touch the learner any more
  /// (i.e. after the manager's pool has been joined).
  void checkpoint();

 private:
  void publish();

  SessionId id_;
  std::vector<std::string> task_names_;
  SessionConfig config_;
  RobustOnlineLearner learner_;  // worker thread only, after construction
  std::size_t since_publish_{0};

  // Functional accounting on the always-on atomic primitives (these keep
  // counting when instrumentation is compiled out — drain() correctness
  // depends on accepted_).
  obs::AtomicCounter accepted_;
  obs::AtomicCounter rejected_;
  StreamingTraceStats stream_stats_;
  std::atomic<bool> closed_{false};
  std::atomic<bool> failed_{false};

  /// Durable store (null = in-memory session).  The worker appends to the
  /// WAL inside process() right before the learner applies, so WAL order
  /// is exactly learner-apply order — the replay-determinism invariant.
  std::shared_ptr<durable::SessionStore> store_;
  /// Highest client-assigned sequence number accepted for enqueue
  /// (duplicate-resend guard; 0 = nothing sequenced yet).
  std::atomic<std::uint64_t> last_enqueued_seq_{0};

  /// Replication tap; shared across sessions, swapped under state_mu_.
  std::shared_ptr<const ShipHook> ship_hook_;

  mutable std::mutex state_mu_;  // guards processed_, snapshot_, ship_hook_
  std::condition_variable drained_;
  std::size_t processed_{0};
  std::shared_ptr<const RobustSnapshot> snapshot_;
};

}  // namespace bbmg
