#include "serve/server.hpp"

#include <unordered_map>
#include <unordered_set>

#include "common/error.hpp"
#include "durable/wal.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/log.hpp"
#include "obs/process_metrics.hpp"
#include "obs/trace_context.hpp"
#include "serve/net.hpp"
#include "serve/serve_metrics.hpp"

namespace bbmg {

namespace {

/// A period must fit in one WAL record or the durable path cannot log it
/// (WalWriter::append throws, which would poison the session).  Events
/// frames are individually under the frame cap but accumulate across
/// frames, so the accumulated period is capped here and rejected with an
/// ErrorReply at EndPeriod instead of ever reaching a worker.
constexpr std::size_t kMaxPeriodEvents =
    (durable::kMaxWalRecordPayload - 4) / kEncodedEventSize;

}  // namespace

Server::Server(ServerConfig config)
    : config_(config), manager_(config.manager) {}

Server::~Server() { stop(); }

void Server::set_cluster(std::shared_ptr<ClusterHooks> cluster) {
  BBMG_REQUIRE(listen_fd_ < 0, "set_cluster must run before start()");
  cluster_ = std::move(cluster);
  if (cluster_) {
    // The hooks outlive manager_.stop() (see header contract), so the
    // raw-pointer capture cannot dangle while a worker can still ship.
    ClusterHooks* hooks = cluster_.get();
    manager_.set_ship_hook([hooks](std::uint32_t session, std::uint64_t seq,
                                   const std::vector<Event>& events) {
      hooks->note_applied(session, seq, events);
    });
  } else {
    manager_.set_ship_hook(nullptr);
  }
}

void Server::start() {
  BBMG_REQUIRE(listen_fd_ < 0, "server already started");
  const net::Listener listener = net::listen_tcp(config_.port, config_.backlog);
  listen_fd_ = listener.fd;
  port_ = listener.port;
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Server::stop() {
  if (stopping_.exchange(true)) {
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  // Unblock the accept loop and join it before closing or clearing the
  // fd: the accept thread keeps reading listen_fd_ until it exits.
  net::shutdown_socket(listen_fd_);
  if (accept_thread_.joinable()) accept_thread_.join();
  net::close_socket(listen_fd_);
  listen_fd_ = -1;
  {
    std::lock_guard<std::mutex> lock(connections_mu_);
    for (auto& conn : connections_) net::shutdown_socket(conn->fd);
  }
  // Connection threads exit on the shutdown-induced EOF; join outside the
  // lock (threads remove nothing themselves, the vector is stable).
  for (;;) {
    std::unique_ptr<Connection> conn;
    {
      std::lock_guard<std::mutex> lock(connections_mu_);
      if (connections_.empty()) break;
      conn = std::move(connections_.back());
      connections_.pop_back();
    }
    if (conn->thread.joinable()) conn->thread.join();
    net::close_socket(conn->fd);
  }
  manager_.stop();
}

void Server::accept_loop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    std::optional<int> fd = net::accept_connection(listen_fd_);
    if (!fd.has_value()) break;
    std::lock_guard<std::mutex> lock(connections_mu_);
    if (stopping_.load(std::memory_order_relaxed)) {
      net::close_socket(*fd);
      break;
    }
    auto conn = std::make_unique<Connection>();
    conn->fd = *fd;
    Connection* raw = conn.get();
    connections_.push_back(std::move(conn));
    raw->thread = std::thread([this, raw] { serve_connection(raw->fd); });
  }
}

void Server::serve_connection(int fd) {
  ServeMetrics::get().connections.inc();
  // Idle policy: a peer that sends nothing for the window trips a typed
  // ReceiveTimeout, caught below as a quiet close (no ErrorReply — the
  // client reconnects transparently on its next request).
  if (config_.idle_timeout_ms != 0) {
    net::set_socket_timeout(fd, config_.idle_timeout_ms);
  }
  FrameDecoder decoder;
  // Period under construction per session addressed by this connection.
  std::unordered_map<std::uint32_t, std::vector<Event>> pending;
  // Sessions whose current period overflowed kMaxPeriodEvents; buffering
  // stops (bounding memory) and the next EndPeriod is refused.
  std::unordered_set<std::uint32_t> oversized;
  bool greeted = false;
  // Causal tracing.  env_ctx is the client's envelope for the request
  // in flight; server_root is the id of this request's first server-side
  // span (server.decode), the parent of every later stage; flow_pending
  // marks that the cross-process flow arrow has not bound yet.
  obs::TraceContext env_ctx{};
  std::uint64_t server_root = 0;
  bool flow_pending = false;
  // The context worker stages should chain from: the decode root once one
  // exists, otherwise the raw envelope.
  const auto request_ctx = [&]() -> obs::TraceContext {
    if (!env_ctx.active()) return {};
    return {env_ctx.trace_id, server_root != 0 ? server_root : env_ctx.span_id};
  };
  const auto clear_ctx = [&] {
    env_ctx = {};
    server_root = 0;
    flow_pending = false;
  };
  // Record the decode/handling span of one request frame as a child of the
  // client's span, binding the flow arrow on the first one.
  const auto note_decode = [&](std::uint64_t start_ns) {
    if (!env_ctx.active()) return;
    const std::uint64_t id = obs::record_stage(
        obs::SpanRing::instance(), "server.decode", start_ns, obs::now_ns(),
        env_ctx, flow_pending ? obs::FlowDir::In : obs::FlowDir::None);
    flow_pending = false;
    if (server_root == 0 && id != 0) server_root = id;
  };
  try {
    while (auto frame = net::read_frame(fd, decoder)) {
      require_hello_first(greeted, frame->type);
      switch (frame->type) {
        case FrameType::Hello: {
          (void)HelloMsg::decode(*frame);
          greeted = true;
          net::write_frame(fd, HelloMsg{}.to_frame(FrameType::HelloAck));
          break;
        }
        case FrameType::TraceContext: {
          const TraceContextMsg msg = TraceContextMsg::decode(*frame);
          env_ctx = {msg.trace_id, msg.span_id};
          server_root = 0;
          flow_pending = true;
          break;
        }
        case FrameType::TraceDumpRequest: {
          const TraceDumpRequestMsg msg = TraceDumpRequestMsg::decode(*frame);
          obs::SpanRing& ring = obs::SpanRing::instance();
          TraceDumpResponseMsg reply;
          reply.drops = ring.dropped();
          const std::vector<obs::SpanRecord> spans =
              msg.drain ? ring.drain() : ring.records();
          reply.spans.reserve(spans.size());
          for (const obs::SpanRecord& s : spans) {
            WireSpan w;
            w.name = s.name;
            w.tid = s.thread;
            w.start_ns = s.start_ns;
            w.duration_ns = s.duration_ns;
            w.trace_id = s.trace_id;
            w.span_id = s.span_id;
            w.parent_id = s.parent_id;
            w.flow = s.flow;
            w.cycles = s.cycles;
            w.instructions = s.instructions;
            w.cache_misses = s.cache_misses;
            w.branch_misses = s.branch_misses;
            reply.spans.push_back(std::move(w));
          }
          if (msg.flight) {
            obs::FlightRecorder::instance().cache_metrics();
            reply.flight = obs::FlightRecorder::instance().render();
          }
          // Stamp the clock last so the client's offset math sees the
          // freshest server time.
          reply.server_now_ns = obs::now_ns();
          net::write_frame(fd, reply.to_frame());
          break;
        }
        case FrameType::OpenSession: {
          const OpenSessionMsg msg = OpenSessionMsg::decode(*frame);
          const SessionId id = manager_.open_session(
              msg.task_names, msg.to_session_config());
          SessionRefMsg reply{static_cast<std::uint32_t>(id.index())};
          net::write_frame(fd, reply.to_frame(FrameType::SessionOpened));
          break;
        }
        case FrameType::Events: {
          const std::uint64_t decode_start = obs::now_ns();
          EventsMsg msg = EventsMsg::decode(*frame);
          note_decode(decode_start);
          if (oversized.count(msg.session) != 0) break;
          auto& buffer = pending[msg.session];
          if (buffer.size() + msg.events.size() > kMaxPeriodEvents) {
            oversized.insert(msg.session);
            buffer.clear();
            buffer.shrink_to_fit();
            break;
          }
          buffer.insert(buffer.end(), msg.events.begin(), msg.events.end());
          break;
        }
        case FrameType::EndPeriod: {
          const std::uint64_t decode_start = obs::now_ns();
          const EndPeriodMsg msg = EndPeriodMsg::decode(*frame);
          note_decode(decode_start);
          if (oversized.erase(msg.session) > 0) {
            // The period never reaches a worker (its WAL record could not
            // be written); the seq stays unclaimed so the client's resume
            // accounting sees it as unacked and its flush fails loudly.
            clear_ctx();
            ErrorReplyMsg err{
                WireErrorCode::Overflow,
                "end-period: period exceeds " +
                    std::to_string(kMaxPeriodEvents) + " events"};
            net::write_frame(fd, err.to_frame());
            break;
          }
          if (cluster_ && !cluster_->admit_write(msg.epoch)) {
            // Split-brain guard: the writer's regime was deposed.  The
            // buffered period is dropped (its seq stays unacked, so the
            // client resends it to the new primary after a map refresh).
            pending.erase(msg.session);
            clear_ctx();
            ErrorReplyMsg err{
                WireErrorCode::Fenced,
                "end-period: epoch " + std::to_string(msg.epoch) +
                    " is below this node's fence floor " +
                    std::to_string(cluster_->epoch()) +
                    "; refetch the cluster map"};
            net::write_frame(fd, err.to_frame());
            break;
          }
          std::vector<Event> events = std::move(pending[msg.session]);
          pending[msg.session].clear();
          // server.ack covers the blocking handoff to the shard queue —
          // the point after which the client's period is the server's
          // responsibility (backpressure shows up as a long ack span).
          const std::uint64_t ack_start = obs::now_ns();
          const obs::TraceContext ctx = request_ctx();
          const SubmitStatus status =
              manager_.submit(SessionId{msg.session}, std::move(events),
                              /*block=*/true, msg.seq, ctx);
          obs::record_stage(obs::SpanRing::instance(), "server.ack",
                            ack_start, obs::now_ns(), ctx);
          clear_ctx();
          if (status != SubmitStatus::Accepted) {
            ErrorReplyMsg err;
            err.code = status == SubmitStatus::Overflow
                           ? WireErrorCode::Overflow
                       : status == SubmitStatus::Failed
                           ? WireErrorCode::Internal
                           : WireErrorCode::UnknownSession;
            err.message = std::string("end-period: ") +
                          std::string(submit_status_name(status));
            net::write_frame(fd, err.to_frame());
          }
          break;
        }
        case FrameType::Query: {
          const std::uint64_t decode_start = obs::now_ns();
          const QueryMsg msg = QueryMsg::decode(*frame);
          note_decode(decode_start);
          const SessionId id{msg.session};
          const std::uint64_t query_start = obs::now_ns();
          if (msg.drain) manager_.drain(id);
          const QueryResult q =
              manager_.query(id, msg.probe ? &*msg.probe : nullptr);
          obs::record_stage(obs::SpanRing::instance(), "server.query",
                            query_start, obs::now_ns(), request_ctx());
          clear_ctx();
          const RobustSnapshot& snap = *q.snapshot;
          ModelReplyMsg reply;
          reply.session = msg.session;
          reply.health = static_cast<std::uint8_t>(snap.health);
          reply.periods_seen = snap.periods_seen;
          reply.periods_learned = snap.periods_learned;
          reply.periods_quarantined = snap.periods_quarantined;
          reply.repairs = snap.repairs;
          reply.converged = snap.result.converged() ? 1 : 0;
          reply.num_hypotheses =
              static_cast<std::uint32_t>(snap.result.hypotheses.size());
          reply.lub = snap.result.hypotheses.empty()
                          ? DependencyMatrix(0)
                          : snap.result.lub();
          reply.weight = reply.lub.weight();
          reply.verdict = static_cast<std::uint8_t>(q.verdict);
          reply.num_violations =
              static_cast<std::uint32_t>(q.violations.size());
          net::write_frame(fd, reply.to_frame());
          break;
        }
        case FrameType::Resume: {
          const SessionRefMsg msg = SessionRefMsg::decode(*frame);
          std::uint64_t high_water = 0;
          try {
            high_water = manager_.resume_high_water(SessionId{msg.session});
          } catch (const std::exception& e) {
            ErrorReplyMsg err{WireErrorCode::UnknownSession, e.what()};
            net::write_frame(fd, err.to_frame());
            break;
          }
          // A replicating primary acks only what the follower also holds:
          // clients then keep (and after a failover resend) the periods in
          // the replication gap — bounded lag, no silent divergence.
          if (cluster_) {
            high_water = cluster_->bounded_high_water(msg.session, high_water);
          }
          ResumeAckMsg reply{msg.session, high_water};
          net::write_frame(fd, reply.to_frame());
          break;
        }
        case FrameType::ClusterMapRequest: {
          (void)ClusterMapRequestMsg::decode(*frame);
          if (!cluster_) {
            ErrorReplyMsg err{WireErrorCode::Internal,
                              "cluster-map: this server is not in cluster "
                              "mode"};
            net::write_frame(fd, err.to_frame());
            break;
          }
          net::write_frame(fd, cluster_->cluster_map().to_frame());
          break;
        }
        case FrameType::OpenSessionAs: {
          const OpenSessionAsMsg msg = OpenSessionAsMsg::decode(*frame);
          if (cluster_ && !cluster_->admit_write(msg.epoch)) {
            ErrorReplyMsg err{
                WireErrorCode::Fenced,
                "open-session-as: epoch " + std::to_string(msg.epoch) +
                    " is below this node's fence floor; the shipping "
                    "primary was deposed"};
            net::write_frame(fd, err.to_frame());
            break;
          }
          try {
            const SessionId id = manager_.open_session_with_id(
                msg.session, msg.task_names, msg.to_session_config());
            SessionRefMsg reply{static_cast<std::uint32_t>(id.index())};
            net::write_frame(fd, reply.to_frame(FrameType::SessionOpened));
          } catch (const std::exception& e) {
            ErrorReplyMsg err{WireErrorCode::Internal, e.what()};
            net::write_frame(fd, err.to_frame());
          }
          break;
        }
        case FrameType::OpenClusterSession: {
          const OpenClusterSessionMsg msg =
              OpenClusterSessionMsg::decode(*frame);
          if (!cluster_) {
            ErrorReplyMsg err{WireErrorCode::Internal,
                              "open-cluster-session: this server is not in "
                              "cluster mode"};
            net::write_frame(fd, err.to_frame());
            break;
          }
          if (!cluster_->admit_write(msg.epoch)) {
            ErrorReplyMsg err{
                WireErrorCode::Fenced,
                "open-cluster-session: epoch " + std::to_string(msg.epoch) +
                    " is below this node's fence floor; refetch the "
                    "cluster map"};
            net::write_frame(fd, err.to_frame());
            break;
          }
          if (const auto redirect = cluster_->route(msg.key)) {
            net::write_frame(fd, redirect->to_frame());
            break;
          }
          const SessionId id =
              manager_.open_session(msg.task_names, msg.to_session_config());
          SessionRefMsg reply{static_cast<std::uint32_t>(id.index())};
          net::write_frame(fd, reply.to_frame(FrameType::SessionOpened));
          break;
        }
        case FrameType::MapUpdate: {
          const MapUpdateMsg msg = MapUpdateMsg::decode(*frame);
          if (!cluster_) {
            ErrorReplyMsg err{WireErrorCode::Internal,
                              "map-update: this server is not in cluster "
                              "mode"};
            net::write_frame(fd, err.to_frame());
            break;
          }
          MapUpdateAckMsg reply;
          reply.accepted = cluster_->apply_map(msg.map) ? 1 : 0;
          reply.epoch = cluster_->epoch();
          net::write_frame(fd, reply.to_frame());
          break;
        }
        case FrameType::MetricsRequest: {
          (void)MetricsRequestMsg::decode(*frame);
          // Pull /proc/self into the registry so every scrape carries
          // fresh RSS/CPU/fd gauges alongside the application metrics.
          obs::refresh_process_metrics();
          MetricsResponseMsg reply;
          reply.snapshot = obs::MetricsRegistry::instance().snapshot();
          net::write_frame(fd, reply.to_frame());
          break;
        }
        case FrameType::VspaceRequest: {
          const VspaceRequestMsg msg = VspaceRequestMsg::decode(*frame);
          const std::optional<VspaceSnapshot> stats =
              manager_.vspace(SessionId{msg.session});
          if (!stats.has_value()) {
            ErrorReplyMsg err{WireErrorCode::UnknownSession,
                              "vspace: unknown session"};
            net::write_frame(fd, err.to_frame());
            break;
          }
          VspaceResponseMsg reply;
          reply.session = msg.session;
          reply.stats = *stats;
          net::write_frame(fd, reply.to_frame());
          break;
        }
        case FrameType::HealthRequest: {
          // SLO verdicts live in bbmg_monitor (it has the fleet-wide time
          // series; one daemon does not).  Answer with a pointer instead of
          // killing the connection, so health probes are safe against
          // either daemon type.
          (void)HealthRequestMsg::decode(*frame);
          ErrorReplyMsg err{WireErrorCode::Internal,
                            "health: served daemons have no SLO state; ask "
                            "bbmg_monitor"};
          net::write_frame(fd, err.to_frame());
          break;
        }
        case FrameType::CloseSession: {
          const SessionRefMsg msg = SessionRefMsg::decode(*frame);
          if (!manager_.close_session(SessionId{msg.session})) {
            ErrorReplyMsg err{WireErrorCode::UnknownSession,
                              "close-session: unknown session"};
            net::write_frame(fd, err.to_frame());
            break;
          }
          net::write_frame(fd,
                           SessionRefMsg{msg.session}.to_frame(
                               FrameType::SessionClosed));
          break;
        }
        default:
          raise("protocol: unexpected frame type from client");
      }
    }
  } catch (const net::ReceiveTimeout&) {
    // Idle policy tripped (--idle-timeout): close quietly, no ErrorReply —
    // this is housekeeping, not a protocol failure.  A deadline that fires
    // mid-frame is counted the same way; the client's unacked buffer
    // resends anything lost.
    ServeMetrics::get().connections_idle_closed.inc();
    BBMG_LOG_INFO("serve.connection_idle_closed",
                  "closed an idle connection",
                  {{"idle_timeout_ms", config_.idle_timeout_ms}});
  } catch (const std::exception& e) {
    // Best-effort error report; the connection dies either way, the
    // server and every other session keep running.
    BBMG_LOG_WARN("serve.connection_error", e.what(), {{"greeted", greeted}});
    try {
      ErrorReplyMsg err{WireErrorCode::BadFrame, e.what()};
      net::write_frame(fd, err.to_frame());
    } catch (...) {
    }
  }
  net::shutdown_socket(fd);
}

}  // namespace bbmg
