#include "serve/session_manager.hpp"

#include "common/error.hpp"
#include "durable/recovery.hpp"
#include "durable/wal.hpp"
#include "obs/log.hpp"
#include "obs/span.hpp"
#include "robust/sanitizer.hpp"
#include "serve/serve_metrics.hpp"

namespace bbmg {

std::string_view submit_status_name(SubmitStatus s) {
  switch (s) {
    case SubmitStatus::Accepted:
      return "accepted";
    case SubmitStatus::Overflow:
      return "overflow";
    case SubmitStatus::UnknownSession:
      return "unknown-session";
    case SubmitStatus::ShuttingDown:
      return "shutting-down";
    case SubmitStatus::Failed:
      return "failed";
  }
  return "?";
}

SessionManager::SessionManager(ManagerConfig config)
    : config_(std::move(config)) {
  if (config_.workers == 0) config_.workers = 1;
  queues_.reserve(config_.workers);
  queue_depth_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    queues_.push_back(
        std::make_unique<BoundedMpscQueue<WorkItem>>(config_.queue_capacity));
    queue_depth_.push_back(&ServeMetrics::queue_depth(i));
  }
  // Recover before the workers start so no submission can race the
  // rebuild of sessions_.
  if (config_.durable.enabled()) recover_sessions();
  workers_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

void SessionManager::recover_sessions() {
  durable::RecoveryReport report = durable::recover_all(config_.durable);
  recovery_.replayed_periods = report.replayed_periods;
  recovery_.torn_tails = report.torn_tails;
  recovery_.quarantined_files = report.quarantined_files.size();
  recovery_.diagnostics = std::move(report.diagnostics);
  // open_session() allocates ids densely from zero, so any huge recovered
  // id can only come from a forged/mangled data-dir entry; honoring it
  // would drive a multi-GB sessions_ resize (or a bad_alloc abort) below.
  constexpr std::uint32_t kMaxRecoverableSessionId = 1u << 20;
  std::lock_guard<std::mutex> lock(sessions_mu_);
  for (durable::RecoveredSession& rec : report.sessions) {
    if (rec.meta.session > kMaxRecoverableSessionId) {
      recovery_.diagnostics.push_back(
          "session " + std::to_string(rec.meta.session) +
          ": id beyond the recoverable cap (" +
          std::to_string(kMaxRecoverableSessionId) + "); ignored");
      continue;
    }
    const SessionId id{rec.meta.session};
    if (id.index() >= sessions_.size()) sessions_.resize(id.index() + 1);
    if (sessions_[id.index()] != nullptr) {
      recovery_.diagnostics.push_back(
          "session " + std::to_string(rec.meta.session) +
          ": duplicate recovered id ignored");
      continue;
    }
    SessionConfig cfg;
    cfg.robust = rec.meta.config;
    cfg.snapshot_interval = rec.meta.snapshot_interval;
    auto session = std::make_shared<LearningSession>(
        id, rec.meta.task_names, cfg,
        RestoredSessionState{std::move(rec.learner), rec.stats, rec.seq});
    session->attach_store(std::move(rec.store));
    sessions_[id.index()] = std::move(session);
    ++recovery_.sessions;
  }
}

SessionManager::~SessionManager() { stop(); }

void SessionManager::stop() {
  if (stopping_.exchange(true)) {
    // Second caller: queues already closed; just make sure joins happened.
  }
  for (auto& q : queues_) q->close();
  for (auto& t : workers_) {
    if (t.joinable()) t.join();
  }
}

void SessionManager::worker_loop(std::size_t worker_index) {
  obs::Gauge& depth = *queue_depth_[worker_index];
  BoundedMpscQueue<WorkItem>& queue = *queues_[worker_index];
  while (auto item = queue.pop()) {
    depth.sub(1);
    if (item->session->failed()) continue;  // poisoned; drop queued periods
    // Queue wait is the gap between submit and this pop; the remaining
    // stage spans (WAL append, fsync, learner apply) record themselves via
    // the thread-local scope set here.
    if (item->ctx.active()) {
      obs::record_stage(obs::SpanRing::instance(), "server.queue_wait",
                        item->enqueue_ns, obs::now_ns(), item->ctx);
    }
    obs::TraceScope trace_scope(item->ctx);
    try {
      item->session->process(item->events, item->enqueue_ns);
    } catch (const std::exception& e) {
      // process() does throwing WAL I/O (fsync failure, disk full,
      // oversized record); an escape here would std::terminate the whole
      // daemon.  Poison just this session — submits are refused, drains
      // wake — and keep the worker serving its other sessions.
      item->session->mark_failed();
      ServeMetrics::get().session_failures.inc();
      BBMG_LOG_ERROR("serve.session_failed", e.what(),
                     {{"session", item->session->id().index()}});
    }
  }
}

std::shared_ptr<LearningSession> SessionManager::create_session_locked(
    SessionId id, std::vector<std::string> task_names, SessionConfig config) {
  auto session =
      std::make_shared<LearningSession>(id, std::move(task_names), config);
  if (config_.durable.enabled()) {
    durable::SessionMeta meta;
    meta.session = static_cast<std::uint32_t>(id.index());
    meta.task_names = session->task_names();
    meta.config = session->config().robust;
    meta.snapshot_interval =
        static_cast<std::uint32_t>(session->config().snapshot_interval);
    // The seq-0 snapshot encodes a fresh learner; one constructed from
    // the same (names, config) is state-identical to the session's.
    const RobustOnlineLearner initial(session->task_names(),
                                      session->config().robust);
    session->attach_store(durable::SessionStore::create(
        config_.durable, std::move(meta), initial,
        StreamingTraceStats::Summary{}));
  }
  session->set_ship_hook(ship_hook_);
  if (id.index() >= sessions_.size()) sessions_.resize(id.index() + 1);
  sessions_[id.index()] = session;
  ServeMetrics::get().sessions_opened.inc();
  return session;
}

SessionId SessionManager::open_session(std::vector<std::string> task_names,
                                       SessionConfig config) {
  BBMG_REQUIRE(!stopping_.load(), "manager is shutting down");
  std::lock_guard<std::mutex> lock(sessions_mu_);
  const SessionId id{sessions_.size()};
  (void)create_session_locked(id, std::move(task_names), config);
  return id;
}

SessionId SessionManager::open_session_with_id(
    std::uint32_t id, std::vector<std::string> task_names,
    SessionConfig config) {
  BBMG_REQUIRE(!stopping_.load(), "manager is shutting down");
  // Same forged-id guard as recovery: honoring a huge id would drive a
  // multi-GB sessions_ resize.
  constexpr std::uint32_t kMaxExplicitSessionId = 1u << 20;
  BBMG_REQUIRE(id <= kMaxExplicitSessionId,
               "open_session_with_id: id beyond the recoverable cap");
  const SessionId sid{id};
  std::lock_guard<std::mutex> lock(sessions_mu_);
  if (sid.index() < sessions_.size() && sessions_[sid.index()] != nullptr) {
    // Idempotent re-open (a replicator retrying a lost reply): accept iff
    // the task universe matches; the learner state is untouched.
    BBMG_REQUIRE(sessions_[sid.index()]->task_names() == task_names,
                 "open_session_with_id: existing session has a different "
                 "task universe");
    return sid;
  }
  (void)create_session_locked(sid, std::move(task_names), config);
  return sid;
}

void SessionManager::set_ship_hook(ShipHook hook) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  ship_hook_ = hook ? std::make_shared<const ShipHook>(std::move(hook))
                    : nullptr;
  for (const auto& session : sessions_) {
    if (session) session->set_ship_hook(ship_hook_);
  }
}

std::optional<SessionManager::SessionInfo> SessionManager::session_info(
    SessionId id) const {
  auto session = find(id);
  if (!session) return std::nullopt;
  SessionInfo info;
  info.task_names = session->task_names();
  info.config = session->config();
  if (session->store()) {
    info.wal_path = session->store()->dir() + "/" + durable::kWalFilename;
  }
  return info;
}

std::shared_ptr<LearningSession> SessionManager::find(SessionId id) const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  if (id.index() >= sessions_.size()) return nullptr;
  return sessions_[id.index()];
}

bool SessionManager::close_session(SessionId id) {
  auto session = find(id);
  if (!session) return false;
  session->mark_closed();
  return true;
}

SubmitStatus SessionManager::submit(SessionId id,
                                    std::vector<Event> period_events,
                                    bool block, std::uint64_t seq,
                                    const obs::TraceContext& ctx) {
  if (stopping_.load(std::memory_order_relaxed)) {
    return SubmitStatus::ShuttingDown;
  }
  ServeMetrics& metrics = ServeMetrics::get();
  metrics.submits.inc();
  auto session = find(id);
  if (!session || session->closed()) return SubmitStatus::UnknownSession;
  if (session->failed()) return SubmitStatus::Failed;
  if (seq != 0 && !session->claim_seq(seq)) {
    // Duplicate resend after a reconnect: the period (or a later one) is
    // already ingested.  Dropping it IS the correct ingestion, so report
    // Accepted — the client needs no special case.
    metrics.duplicate_periods.inc();
    return SubmitStatus::Accepted;
  }
  const std::size_t shard = id.index() % queues_.size();
  BoundedMpscQueue<WorkItem>& queue = *queues_[shard];
  // Reserve the slot before the push so a drain() that starts after this
  // submit returns can never run ahead of the queued period.
  session->note_submitted();
  // Likewise raise the depth gauge before the push: the worker decrements
  // after its pop, so the gauge over-reports during the handoff instead of
  // ever going negative.
  queue_depth_[shard]->add(1);
  WorkItem item{session, std::move(period_events), obs::now_ns(), ctx};
  const bool pushed =
      block ? queue.push(std::move(item)) : queue.try_push(std::move(item));
  if (!pushed) {
    session->note_rejected();
    queue_depth_[shard]->sub(1);
    if (seq != 0) session->release_seq(seq);
    if (!stopping_.load(std::memory_order_relaxed)) {
      metrics.overflows.inc();
      return SubmitStatus::Overflow;
    }
    return SubmitStatus::ShuttingDown;
  }
  return SubmitStatus::Accepted;
}

std::uint64_t SessionManager::resume_high_water(SessionId id) {
  auto session = find(id);
  BBMG_REQUIRE(session != nullptr, "resume: unknown session");
  // Drain first so the mark covers every period already submitted on any
  // connection, then fsync: the reported high-water is honestly durable.
  session->drain();
  return session->flush_durable();
}

void SessionManager::checkpoint_all() {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  for (const auto& session : sessions_) {
    if (!session) continue;
    try {
      session->checkpoint();
    } catch (const std::exception& e) {
      // Shutdown best-effort: one session's disk error must not abort the
      // drain — its WAL already covers everything a snapshot would.
      BBMG_LOG_ERROR("serve.checkpoint_failed", e.what(),
                     {{"session", session->id().index()}});
    }
  }
}

void SessionManager::drain(SessionId id) {
  auto session = find(id);
  BBMG_REQUIRE(session != nullptr, "drain: unknown session");
  session->drain();
}

QueryResult SessionManager::query(SessionId id,
                                  const std::vector<Event>* probe) const {
  ServeMetrics& metrics = ServeMetrics::get();
  metrics.queries.inc();
  obs::Span span(&metrics.query_latency_us, "serve.query");
  auto session = find(id);
  BBMG_REQUIRE(session != nullptr, "query: unknown session");
  QueryResult result;
  result.snapshot = session->snapshot();
  if (probe != nullptr) {
    const TraceSanitizer sanitizer(session->task_names(),
                                   session->config().robust.sanitize);
    const SanitizedPeriod sp = sanitizer.sanitize_period(*probe);
    if (sp.quarantined()) {
      result.verdict = ProbeVerdict::Unverifiable;
    } else {
      const DependencyMatrix model = result.snapshot->result.lub();
      check_period_conformance(model, *sp.period,
                               session->task_names().size(), 0,
                               result.violations);
      result.verdict = result.violations.empty() ? ProbeVerdict::Conforms
                                                 : ProbeVerdict::Violates;
    }
  }
  return result;
}

SessionStats SessionManager::stats(SessionId id) const {
  auto session = find(id);
  BBMG_REQUIRE(session != nullptr, "stats: unknown session");
  SessionStats s;
  s.accepted = session->accepted();
  s.rejected = session->rejected();
  s.processed = session->processed();
  s.health = session->snapshot()->health;
  return s;
}

std::optional<VspaceSnapshot> SessionManager::vspace(SessionId id) const {
  auto session = find(id);
  if (session == nullptr) return std::nullopt;
  return session->vspace();
}

std::size_t SessionManager::num_sessions() const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  std::size_t n = 0;
  for (const auto& s : sessions_) {
    if (s) ++n;
  }
  return n;
}

std::vector<std::uint32_t> SessionManager::session_ids() const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  std::vector<std::uint32_t> ids;
  ids.reserve(sessions_.size());
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    if (sessions_[i]) ids.push_back(static_cast<std::uint32_t>(i));
  }
  return ids;
}

}  // namespace bbmg
