// SessionManager: N independent learning sessions sharded over a fixed
// pool of worker threads.
//
// Sharding model (DESIGN.md "Service architecture"): each worker owns one
// bounded MPSC queue; a session is pinned to worker (id mod workers), so
// all periods of one session are processed by one thread in submission
// order — per-session determinism — while distinct sessions on distinct
// workers learn fully in parallel.  The only hot-path synchronization is
// the queue handoff; the learner itself is single-threaded per session.
//
// Backpressure: submit(..., block=false) refuses when the shard's queue is
// full and the rejection is accounted on the session (clients replaying
// files use block=true and are simply throttled).  Queries are answered
// from the session's published snapshot and never stall ingestion.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "analysis/conformance.hpp"
#include "durable/store.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_context.hpp"
#include "serve/queue.hpp"
#include "serve/session.hpp"

namespace bbmg {

struct ManagerConfig {
  /// Worker threads (and ingest queues); sessions are sharded across them.
  std::size_t workers{2};
  /// Per-worker queue capacity, in periods.
  std::size_t queue_capacity{256};
  /// Durability (src/durable).  When durable.enabled(), the manager
  /// recovers every session found in the data directory at construction,
  /// WALs each applied period, and compacts with periodic snapshots.
  durable::DurableConfig durable;
};

/// What startup recovery found (counts + operator-facing diagnostics);
/// empty when durability is off or the data directory was fresh.
struct RecoverySummary {
  std::size_t sessions{0};
  std::uint64_t replayed_periods{0};
  std::uint64_t torn_tails{0};
  std::size_t quarantined_files{0};
  std::vector<std::string> diagnostics;
};

enum class SubmitStatus : std::uint8_t {
  Accepted,
  /// Bounded queue full and block=false: the period was NOT ingested.
  Overflow,
  /// No such session, or the session was closed.
  UnknownSession,
  /// The manager is stopping; nothing is ingested any more.
  ShuttingDown,
  /// The session was poisoned by an apply/WAL failure (disk full, fsync
  /// error, oversized record); it refuses further periods but still
  /// answers queries from its last published snapshot.
  Failed,
};

[[nodiscard]] std::string_view submit_status_name(SubmitStatus s);

/// Outcome of checking a probe period against a served snapshot.
enum class ProbeVerdict : std::uint8_t {
  None = 0,          // no probe submitted
  Conforms = 1,      // probe period conforms to the snapshot's dLUB model
  Violates = 2,      // at least one conformance violation
  Unverifiable = 3,  // the sanitizer quarantined the probe period
};

struct QueryResult {
  std::shared_ptr<const RobustSnapshot> snapshot;
  ProbeVerdict verdict{ProbeVerdict::None};
  std::vector<ConformanceViolation> violations;
};

struct SessionStats {
  std::size_t accepted{0};
  std::size_t rejected{0};
  std::size_t processed{0};
  HealthState health{HealthState::OK};
};

class SessionManager {
 public:
  explicit SessionManager(ManagerConfig config = {});
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Create a session for the given task universe.  Thread-safe.
  [[nodiscard]] SessionId open_session(std::vector<std::string> task_names,
                                       SessionConfig config = {});

  /// Create a session under an explicit id (the follower half of WAL
  /// replication: the primary mirrors its session ids so clients can
  /// reattach after failover).  Idempotent — re-opening an existing id
  /// with the same task universe is a no-op; a different universe raises.
  /// Ids between the current tail and `id` stay as null gaps.
  SessionId open_session_with_id(std::uint32_t id,
                                 std::vector<std::string> task_names,
                                 SessionConfig config = {});

  /// Install (or clear) the replication tap on every current and future
  /// session.  Call before any traffic that should replicate (typically
  /// right after construction, before the server starts accepting).
  void set_ship_hook(ShipHook hook);

  /// What the replicator needs to mirror one session: its task universe,
  /// config, and the live WAL path ("" for in-memory sessions).
  struct SessionInfo {
    std::vector<std::string> task_names;
    SessionConfig config;
    std::string wal_path;
  };
  /// nullopt for unknown/null ids.  Thread-safe.
  [[nodiscard]] std::optional<SessionInfo> session_info(SessionId id) const;

  /// Refuse further submissions to the session; periods already queued are
  /// still learned.  Returns false for an unknown id.
  bool close_session(SessionId id);

  /// Hand one raw period to the session's shard.  block=true waits for
  /// queue space (lossless replay); block=false returns Overflow when the
  /// shard is saturated (backpressure).  seq, when non-zero, is the
  /// client's idempotence sequence number: a seq at or below the
  /// session's high-water mark is dropped as an already-ingested
  /// duplicate (still Accepted — resends after a reconnect are expected).
  /// ctx, when active, is the request's causal trace context (the server's
  /// decode span): the worker records its stage spans — queue wait, WAL
  /// append, fsync, learner apply — as children of it.
  SubmitStatus submit(SessionId id, std::vector<Event> period_events,
                      bool block = true, std::uint64_t seq = 0,
                      const obs::TraceContext& ctx = {});

  /// Wait until every period accepted so far has been processed.
  void drain(SessionId id);

  /// Copy out the session's latest published snapshot (never stalls the
  /// worker).  probe, if non-null, is additionally sanitized and checked
  /// against the snapshot's dLUB model.  Throws bbmg::Error for unknown
  /// ids.
  [[nodiscard]] QueryResult query(SessionId id,
                                  const std::vector<Event>* probe = nullptr) const;

  [[nodiscard]] SessionStats stats(SessionId id) const;
  /// Live version-space snapshot of one session (VspaceRequest);
  /// nullopt for unknown/null ids.  Never stalls the worker.
  [[nodiscard]] std::optional<VspaceSnapshot> vspace(SessionId id) const;
  [[nodiscard]] std::size_t num_sessions() const;
  /// Ids of every live session, ascending (null gaps skipped).  The heal
  /// pass of a freshly promoted primary walks this to re-mirror sessions
  /// whose traffic stopped before the failover.  Thread-safe.
  [[nodiscard]] std::vector<std::uint32_t> session_ids() const;
  [[nodiscard]] std::size_t num_workers() const { return queues_.size(); }
  [[nodiscard]] const ManagerConfig& config() const { return config_; }

  /// Drain the session, fsync its WAL, and return the durable high-water
  /// mark (the Resume handler's backing).  Throws for unknown ids.
  [[nodiscard]] std::uint64_t resume_high_water(SessionId id);

  /// What startup recovery restored (empty if durability is off).
  [[nodiscard]] const RecoverySummary& recovery() const { return recovery_; }

  /// Close all queues, finish queued work, join the pool.  Idempotent;
  /// also run by the destructor.
  void stop();

  /// Write a final snapshot for every durable session.  Call after stop()
  /// — the graceful-drain shutdown path (SIGTERM): stop accepting, finish
  /// the queues, then checkpoint so restart needs no WAL replay.
  void checkpoint_all();

 private:
  struct WorkItem {
    std::shared_ptr<LearningSession> session;
    std::vector<Event> events;
    /// obs::now_ns() at submit; 0 when instrumentation is compiled out.
    std::uint64_t enqueue_ns{0};
    /// Causal context of the request that queued this period (inactive for
    /// untraced submissions).
    obs::TraceContext ctx{};
  };

  [[nodiscard]] std::shared_ptr<LearningSession> find(SessionId id) const;
  /// Build + store one session at `id` (sessions_mu_ held by the caller).
  std::shared_ptr<LearningSession> create_session_locked(
      SessionId id, std::vector<std::string> task_names, SessionConfig config);
  void worker_loop(std::size_t worker_index);
  /// Run startup recovery and rebuild sessions_ (ids keep their pre-crash
  /// values; unrecovered ids stay as null gaps).
  void recover_sessions();

  ManagerConfig config_;
  std::vector<std::unique_ptr<BoundedMpscQueue<WorkItem>>> queues_;
  /// Per-worker shard depth gauges, resolved once at construction.
  std::vector<obs::Gauge*> queue_depth_;
  std::vector<std::thread> workers_;
  std::atomic<bool> stopping_{false};

  mutable std::mutex sessions_mu_;
  /// index == id; entries can be null after recovery (ids whose state was
  /// quarantined) or below an explicitly-opened id — callers treat a null
  /// as UnknownSession.
  std::vector<std::shared_ptr<LearningSession>> sessions_;
  /// Replication tap handed to every session (null = replication off).
  std::shared_ptr<const ShipHook> ship_hook_;

  RecoverySummary recovery_;
};

}  // namespace bbmg
