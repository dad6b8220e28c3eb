#include "serve/client.hpp"

#include "common/error.hpp"
#include "serve/net.hpp"
#include "trace/event.hpp"

namespace bbmg {

namespace {

/// Append a TraceContext envelope frame when `ctx` is active.
void append_ctx_frame(std::vector<std::uint8_t>& bytes,
                      const obs::TraceContext& ctx) {
  if (!ctx.active()) return;
  append_frame(bytes, TraceContextMsg{ctx.trace_id, ctx.span_id}.to_frame());
}

}  // namespace

ServeClient::~ServeClient() { disconnect(); }

void ServeClient::connect(const std::string& host, std::uint16_t port) {
  BBMG_REQUIRE(fd_ < 0, "client already connected");
  fd_ = net::connect_tcp(host, port);
  if (request_timeout_ms_ != 0) {
    net::set_socket_timeout(fd_, request_timeout_ms_);
  }
  try {
    net::write_frame(fd_, HelloMsg{}.to_frame(FrameType::Hello));
    (void)HelloMsg::decode(expect_reply(FrameType::HelloAck));
  } catch (...) {
    disconnect();
    throw;
  }
}

void ServeClient::disconnect() {
  if (fd_ >= 0) {
    net::shutdown_socket(fd_);
    net::close_socket(fd_);
    fd_ = -1;
  }
}

Frame ServeClient::expect_reply(FrameType expected) {
  BBMG_REQUIRE(fd_ >= 0, "client not connected");
  std::optional<Frame> frame = net::read_frame(fd_, decoder_);
  if (!frame.has_value()) {
    raise("client: server closed the connection while awaiting a reply");
  }
  if (frame->type == FrameType::ErrorReply) {
    const ErrorReplyMsg err = ErrorReplyMsg::decode(*frame);
    if (err.code == WireErrorCode::Fenced) throw FencedError(err.message);
    throw ServerError(err.code, err.message);
  }
  // Only OpenClusterSession is ever answered with a Redirect.
  if (frame->type == FrameType::Redirect) {
    throw Redirected(RedirectMsg::decode(*frame));
  }
  if (frame->type != expected) {
    raise("client: unexpected reply frame type");
  }
  return std::move(*frame);
}

std::uint32_t ServeClient::open_session(
    const std::vector<std::string>& task_names, std::uint32_t bound,
    SanitizePolicy policy, std::uint32_t snapshot_interval) {
  OpenSessionMsg msg;
  msg.task_names = task_names;
  msg.bound = bound;
  msg.policy = policy;
  msg.snapshot_interval = snapshot_interval;
  net::write_frame(fd_, msg.to_frame());
  return SessionRefMsg::decode(expect_reply(FrameType::SessionOpened)).session;
}

void ServeClient::open_session_as(std::uint32_t session,
                                  const std::vector<std::string>& task_names,
                                  std::uint32_t bound, SanitizePolicy policy,
                                  std::uint32_t snapshot_interval) {
  BBMG_REQUIRE(fd_ >= 0, "client not connected");
  OpenSessionAsMsg msg;
  msg.session = session;
  msg.task_names = task_names;
  msg.bound = bound;
  msg.policy = policy;
  msg.snapshot_interval = snapshot_interval;
  msg.epoch = write_epoch_;
  net::write_frame(fd_, msg.to_frame());
  const SessionRefMsg ref =
      SessionRefMsg::decode(expect_reply(FrameType::SessionOpened));
  BBMG_REQUIRE(ref.session == session,
               "open_session_as: server opened a different session id");
}

std::uint32_t ServeClient::open_cluster_session(
    const std::string& key, const std::vector<std::string>& task_names,
    std::uint32_t bound, SanitizePolicy policy,
    std::uint32_t snapshot_interval) {
  BBMG_REQUIRE(fd_ >= 0, "client not connected");
  OpenClusterSessionMsg msg;
  msg.key = key;
  msg.task_names = task_names;
  msg.bound = bound;
  msg.policy = policy;
  msg.snapshot_interval = snapshot_interval;
  msg.epoch = write_epoch_;
  net::write_frame(fd_, msg.to_frame());
  return SessionRefMsg::decode(expect_reply(FrameType::SessionOpened)).session;
}

ClusterMapResponseMsg ServeClient::fetch_cluster_map() {
  BBMG_REQUIRE(fd_ >= 0, "client not connected");
  net::write_frame(fd_, ClusterMapRequestMsg{}.to_frame());
  return ClusterMapResponseMsg::decode(
      expect_reply(FrameType::ClusterMapResponse));
}

MapUpdateAckMsg ServeClient::push_map_update(const ClusterMapResponseMsg& map) {
  BBMG_REQUIRE(fd_ >= 0, "client not connected");
  MapUpdateMsg msg;
  msg.map = map;
  net::write_frame(fd_, msg.to_frame());
  return MapUpdateAckMsg::decode(expect_reply(FrameType::MapUpdateAck));
}

void ServeClient::send_period(std::uint32_t session,
                              const std::vector<Event>& events,
                              std::uint64_t seq,
                              const obs::TraceContext& ctx) {
  BBMG_REQUIRE(fd_ >= 0, "client not connected");
  EventsMsg msg;
  msg.session = session;
  msg.events = events;
  // One write for all frames: the envelope, the period payload, and its
  // delimiter.
  std::vector<std::uint8_t> bytes;
  append_ctx_frame(bytes, ctx);
  append_frame(bytes, msg.to_frame());
  append_frame(bytes, EndPeriodMsg{session, seq, write_epoch_}.to_frame());
  net::write_all(fd_, bytes.data(), bytes.size());
}

std::uint64_t ServeClient::resume(std::uint32_t session) {
  BBMG_REQUIRE(fd_ >= 0, "client not connected");
  net::write_frame(fd_, SessionRefMsg{session}.to_frame(FrameType::Resume));
  const ResumeAckMsg ack =
      ResumeAckMsg::decode(expect_reply(FrameType::ResumeAck));
  BBMG_REQUIRE(ack.session == session, "resume: session mismatch in ack");
  return ack.high_water;
}

std::size_t ServeClient::send_trace(std::uint32_t session, const Trace& trace) {
  for (const Period& p : trace.periods()) {
    send_period(session, p.to_events());
  }
  return trace.num_periods();
}

WireSnapshot ServeClient::query(std::uint32_t session, bool drain,
                                const std::vector<Event>* probe,
                                const obs::TraceContext& ctx) {
  BBMG_REQUIRE(fd_ >= 0, "client not connected");
  QueryMsg msg;
  msg.session = session;
  msg.drain = drain;
  if (probe != nullptr) msg.probe = *probe;
  std::vector<std::uint8_t> bytes;
  append_ctx_frame(bytes, ctx);
  append_frame(bytes, msg.to_frame());
  net::write_all(fd_, bytes.data(), bytes.size());
  const ModelReplyMsg reply =
      ModelReplyMsg::decode(expect_reply(FrameType::ModelReply));
  WireSnapshot snap;
  snap.session = reply.session;
  snap.health = static_cast<HealthState>(reply.health);
  snap.periods_seen = reply.periods_seen;
  snap.periods_learned = reply.periods_learned;
  snap.periods_quarantined = reply.periods_quarantined;
  snap.repairs = reply.repairs;
  snap.converged = reply.converged != 0;
  snap.num_hypotheses = reply.num_hypotheses;
  snap.weight = reply.weight;
  snap.verdict = static_cast<ProbeVerdict>(reply.verdict);
  snap.num_violations = reply.num_violations;
  snap.lub = reply.lub;
  return snap;
}

obs::MetricsSnapshot ServeClient::fetch_metrics() {
  BBMG_REQUIRE(fd_ >= 0, "client not connected");
  net::write_frame(fd_, MetricsRequestMsg{}.to_frame());
  return MetricsResponseMsg::decode(expect_reply(FrameType::MetricsResponse))
      .snapshot;
}

TraceDumpResponseMsg ServeClient::fetch_trace_dump(bool drain, bool flight) {
  BBMG_REQUIRE(fd_ >= 0, "client not connected");
  TraceDumpRequestMsg req;
  req.drain = drain;
  req.flight = flight;
  net::write_frame(fd_, req.to_frame());
  return TraceDumpResponseMsg::decode(
      expect_reply(FrameType::TraceDumpResponse));
}

HealthResponseMsg ServeClient::fetch_health() {
  BBMG_REQUIRE(fd_ >= 0, "client not connected");
  net::write_frame(fd_, HealthRequestMsg{}.to_frame());
  return HealthResponseMsg::decode(expect_reply(FrameType::HealthResponse));
}

VspaceResponseMsg ServeClient::fetch_vspace(std::uint32_t session) {
  BBMG_REQUIRE(fd_ >= 0, "client not connected");
  VspaceRequestMsg req;
  req.session = session;
  net::write_frame(fd_, req.to_frame());
  return VspaceResponseMsg::decode(expect_reply(FrameType::VspaceResponse));
}

void ServeClient::close_session(std::uint32_t session) {
  BBMG_REQUIRE(fd_ >= 0, "client not connected");
  net::write_frame(fd_, SessionRefMsg{session}.to_frame(FrameType::CloseSession));
  (void)SessionRefMsg::decode(expect_reply(FrameType::SessionClosed));
}

}  // namespace bbmg
