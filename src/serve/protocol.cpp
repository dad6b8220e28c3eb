#include "serve/protocol.hpp"

#include <cstring>
#include <sstream>

#include "common/error.hpp"
#include "core/matrix_cells.hpp"

namespace bbmg {

namespace {

ByteReader payload_reader(const Frame& frame) {
  return ByteReader(frame.payload.data(), frame.payload.size());
}

void finish(const Frame& frame, const ByteReader& r, const char* what) {
  if (!r.done()) {
    std::ostringstream os;
    os << "protocol: trailing garbage in " << what << " frame ("
       << frame.payload.size() - r.position() << " extra bytes)";
    raise(os.str());
  }
}

}  // namespace

void append_frame(std::vector<std::uint8_t>& out, const Frame& frame) {
  BBMG_REQUIRE(frame.payload.size() <= kMaxFramePayload,
               "frame payload exceeds limit");
  append_u32(out, static_cast<std::uint32_t>(frame.payload.size()));
  append_u8(out, static_cast<std::uint8_t>(frame.type));
  out.insert(out.end(), frame.payload.begin(), frame.payload.end());
}

void require_hello_first(bool greeted, FrameType type) {
  if (greeted || type == FrameType::Hello) return;
  std::ostringstream os;
  os << "protocol: frame type " << int{static_cast<std::uint8_t>(type)}
     << " before hello";
  raise(os.str());
}

void FrameDecoder::feed(const std::uint8_t* data, std::size_t size) {
  // Compact lazily: drop consumed prefix once it dominates the buffer.
  if (consumed_ > 4096 && consumed_ * 2 > buffer_.size()) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), data, data + size);
}

void FrameDecoder::set_max_payload(std::size_t cap) {
  if (cap == 0) return;
  max_payload_ = cap < kMaxFramePayload ? cap : kMaxFramePayload;
}

std::optional<Frame> FrameDecoder::next() {
  const std::size_t avail = buffer_.size() - consumed_;
  if (avail < 5) return std::nullopt;
  ByteReader r(buffer_.data() + consumed_, avail);
  const std::uint32_t length = r.read_u32();
  if (length > max_payload_) {
    throw FrameTooLarge(length, max_payload_);
  }
  const std::uint8_t type = r.read_u8();
  if (type < static_cast<std::uint8_t>(FrameType::Hello) ||
      type > kMaxFrameType) {
    // Both peers speak the same frame set, so only corruption produces a
    // type outside it.
    std::ostringstream os;
    os << "protocol: invalid frame type " << int{type};
    raise(os.str());
  }
  if (avail < 5 + static_cast<std::size_t>(length)) return std::nullopt;
  Frame frame;
  frame.type = static_cast<FrameType>(type);
  const std::uint8_t* body = buffer_.data() + consumed_ + 5;
  frame.payload.assign(body, body + length);
  consumed_ += 5 + length;
  return frame;
}

// -- Hello -----------------------------------------------------------------

Frame HelloMsg::to_frame(FrameType type) const {
  Frame f;
  f.type = type;
  append_u32(f.payload, magic);
  append_u16(f.payload, version);
  return f;
}

HelloMsg HelloMsg::decode(const Frame& frame) {
  ByteReader r = payload_reader(frame);
  HelloMsg m;
  m.magic = r.read_u32();
  m.version = r.read_u16();
  finish(frame, r, "hello");
  if (m.magic != kServeMagic) {
    raise("protocol: bad magic in hello (peer is not a bbmg client)");
  }
  if (m.version != kServeProtocolVersion) {
    std::ostringstream os;
    os << "protocol: unsupported version " << m.version << " (speaking "
       << kServeProtocolVersion << ")";
    raise(os.str());
  }
  return m;
}

// -- OpenSession -----------------------------------------------------------

namespace {

/// The OpenSession field group shared by the three open-session variants;
/// kept one codec so the wire layout can never drift between them.
void append_open_fields(std::vector<std::uint8_t>& out,
                        const std::vector<std::string>& task_names,
                        std::uint32_t bound, SanitizePolicy policy,
                        std::uint32_t snapshot_interval) {
  append_task_names(out, task_names);
  append_u32(out, bound);
  append_u8(out, static_cast<std::uint8_t>(policy));
  append_u32(out, snapshot_interval);
}

OpenSessionMsg read_open_fields(ByteReader& r, const char* what) {
  OpenSessionMsg f;
  f.task_names = read_task_names(r);
  f.bound = r.read_u32();
  const std::uint8_t policy = r.read_u8();
  if (policy > static_cast<std::uint8_t>(SanitizePolicy::Quarantine)) {
    raise(std::string("protocol: invalid sanitize policy in ") + what);
  }
  f.policy = static_cast<SanitizePolicy>(policy);
  f.snapshot_interval = r.read_u32();
  if (f.bound == 0) {
    raise(std::string("protocol: ") + what + " bound must be >= 1");
  }
  return f;
}

SessionConfig open_fields_config(std::uint32_t bound, SanitizePolicy policy,
                                 std::uint32_t snapshot_interval) {
  SessionConfig cfg;
  cfg.robust.online.bound = bound;
  cfg.robust.sanitize.policy = policy;
  cfg.snapshot_interval = snapshot_interval;
  return cfg;
}

}  // namespace

Frame OpenSessionMsg::to_frame() const {
  Frame f;
  f.type = FrameType::OpenSession;
  append_open_fields(f.payload, task_names, bound, policy, snapshot_interval);
  return f;
}

OpenSessionMsg OpenSessionMsg::decode(const Frame& frame) {
  ByteReader r = payload_reader(frame);
  OpenSessionMsg m = read_open_fields(r, "open-session");
  finish(frame, r, "open-session");
  return m;
}

SessionConfig OpenSessionMsg::to_session_config() const {
  return open_fields_config(bound, policy, snapshot_interval);
}

// -- SessionRef ------------------------------------------------------------

Frame SessionRefMsg::to_frame(FrameType type) const {
  Frame f;
  f.type = type;
  append_u32(f.payload, session);
  return f;
}

SessionRefMsg SessionRefMsg::decode(const Frame& frame) {
  ByteReader r = payload_reader(frame);
  SessionRefMsg m;
  m.session = r.read_u32();
  finish(frame, r, "session-ref");
  return m;
}

// -- EndPeriod -------------------------------------------------------------

Frame EndPeriodMsg::to_frame() const {
  Frame f;
  f.type = FrameType::EndPeriod;
  append_u32(f.payload, session);
  append_u64(f.payload, seq);
  if (epoch != 0) append_u64(f.payload, epoch);  // optional trailer
  return f;
}

EndPeriodMsg EndPeriodMsg::decode(const Frame& frame) {
  ByteReader r = payload_reader(frame);
  EndPeriodMsg m;
  m.session = r.read_u32();
  m.seq = r.read_u64();
  if (!r.done()) m.epoch = r.read_u64();
  finish(frame, r, "end-period");
  return m;
}

// -- ResumeAck -------------------------------------------------------------

Frame ResumeAckMsg::to_frame() const {
  Frame f;
  f.type = FrameType::ResumeAck;
  append_u32(f.payload, session);
  append_u64(f.payload, high_water);
  return f;
}

ResumeAckMsg ResumeAckMsg::decode(const Frame& frame) {
  ByteReader r = payload_reader(frame);
  ResumeAckMsg m;
  m.session = r.read_u32();
  m.high_water = r.read_u64();
  finish(frame, r, "resume-ack");
  return m;
}

// -- Events ----------------------------------------------------------------

Frame EventsMsg::to_frame() const {
  Frame f;
  f.type = FrameType::Events;
  append_u32(f.payload, session);
  append_u32(f.payload, static_cast<std::uint32_t>(events.size()));
  for (const Event& e : events) append_event(f.payload, e);
  return f;
}

EventsMsg EventsMsg::decode(const Frame& frame) {
  ByteReader r = payload_reader(frame);
  EventsMsg m;
  m.session = r.read_u32();
  const std::uint32_t count =
      r.read_count(kMaxEventsPerPeriod, kEncodedEventSize,
                   "protocol: event count exceeds sanity cap");
  m.events.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) m.events.push_back(r.read_event());
  finish(frame, r, "events");
  return m;
}

// -- Query -----------------------------------------------------------------

Frame QueryMsg::to_frame() const {
  Frame f;
  f.type = FrameType::Query;
  append_u32(f.payload, session);
  std::uint8_t flags = 0;
  if (drain) flags |= 1;
  if (probe.has_value()) flags |= 2;
  append_u8(f.payload, flags);
  if (probe.has_value()) {
    append_u32(f.payload, static_cast<std::uint32_t>(probe->size()));
    for (const Event& e : *probe) append_event(f.payload, e);
  }
  return f;
}

QueryMsg QueryMsg::decode(const Frame& frame) {
  ByteReader r = payload_reader(frame);
  QueryMsg m;
  m.session = r.read_u32();
  const std::uint8_t flags = r.read_u8();
  if ((flags & ~0x3u) != 0) raise("protocol: unknown query flags");
  m.drain = (flags & 1) != 0;
  if ((flags & 2) != 0) {
    const std::uint32_t count =
        r.read_count(kMaxEventsPerPeriod, kEncodedEventSize,
                     "protocol: probe event count exceeds sanity cap");
    std::vector<Event> probe;
    probe.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) probe.push_back(r.read_event());
    m.probe = std::move(probe);
  }
  finish(frame, r, "query");
  return m;
}

// -- causal tracing --------------------------------------------------------

Frame TraceContextMsg::to_frame() const {
  Frame f;
  f.type = FrameType::TraceContext;
  append_u64(f.payload, trace_id);
  append_u64(f.payload, span_id);
  return f;
}

TraceContextMsg TraceContextMsg::decode(const Frame& frame) {
  ByteReader r = payload_reader(frame);
  TraceContextMsg m;
  m.trace_id = r.read_u64();
  m.span_id = r.read_u64();
  finish(frame, r, "trace-context");
  return m;
}

Frame TraceDumpRequestMsg::to_frame() const {
  Frame f;
  f.type = FrameType::TraceDumpRequest;
  std::uint8_t flags = 0;
  if (drain) flags |= 1;
  if (flight) flags |= 2;
  append_u8(f.payload, flags);
  return f;
}

TraceDumpRequestMsg TraceDumpRequestMsg::decode(const Frame& frame) {
  ByteReader r = payload_reader(frame);
  TraceDumpRequestMsg m;
  const std::uint8_t flags = r.read_u8();
  if ((flags & ~0x3u) != 0) raise("protocol: unknown trace-dump flags");
  m.drain = (flags & 1) != 0;
  m.flight = (flags & 2) != 0;
  finish(frame, r, "trace-dump-request");
  return m;
}

Frame TraceDumpResponseMsg::to_frame() const {
  BBMG_REQUIRE(spans.size() <= kMaxWireSpans,
               "trace dump exceeds wire span cap");
  Frame f;
  f.type = FrameType::TraceDumpResponse;
  append_u64(f.payload, server_now_ns);
  append_u64(f.payload, drops);
  append_u32(f.payload, static_cast<std::uint32_t>(spans.size()));
  for (const WireSpan& s : spans) {
    append_string(f.payload, s.name.size() <= kMaxNameLength
                                 ? s.name
                                 : s.name.substr(0, kMaxNameLength));
    append_u32(f.payload, s.tid);
    append_u64(f.payload, s.start_ns);
    append_u64(f.payload, s.duration_ns);
    append_u64(f.payload, s.trace_id);
    append_u64(f.payload, s.span_id);
    append_u64(f.payload, s.parent_id);
    append_u8(f.payload, s.flow);
  }
  // Flight text rides as a chunk list so it reuses the length-capped
  // string codec (the dump can far exceed one string's 4 KiB cap).
  const std::size_t nchunks =
      (flight.size() + kMaxNameLength - 1) / kMaxNameLength;
  BBMG_REQUIRE(nchunks <= kMaxWireFlightChunks,
               "flight dump exceeds wire cap");
  append_u32(f.payload, static_cast<std::uint32_t>(nchunks));
  for (std::size_t i = 0; i < nchunks; ++i) {
    append_string(f.payload, flight.substr(i * kMaxNameLength, kMaxNameLength));
  }
  // Per-span hardware counters ride as a trailer after the flight text.
  append_u8(f.payload, 1);  // trailer format marker
  for (const WireSpan& s : spans) {
    append_u64(f.payload, s.cycles);
    append_u64(f.payload, s.instructions);
    append_u64(f.payload, s.cache_misses);
    append_u64(f.payload, s.branch_misses);
  }
  return f;
}

TraceDumpResponseMsg TraceDumpResponseMsg::decode(const Frame& frame) {
  ByteReader r = payload_reader(frame);
  TraceDumpResponseMsg m;
  m.server_now_ns = r.read_u64();
  m.drops = r.read_u64();
  // Per span: name length u16, tid u32, five u64 fields, flow u8.
  const std::uint32_t nspans = r.read_count(
      kMaxWireSpans, 2 + 4 + 5 * 8 + 1,
      "protocol: span count exceeds sanity cap");
  m.spans.reserve(nspans);
  for (std::uint32_t i = 0; i < nspans; ++i) {
    WireSpan s;
    s.name = r.read_string();
    s.tid = r.read_u32();
    s.start_ns = r.read_u64();
    s.duration_ns = r.read_u64();
    s.trace_id = r.read_u64();
    s.span_id = r.read_u64();
    s.parent_id = r.read_u64();
    s.flow = r.read_u8();
    if (s.flow > 2) raise("protocol: invalid flow direction in trace dump");
    m.spans.push_back(std::move(s));
  }
  const std::uint32_t nchunks = r.read_u32();
  if (nchunks > kMaxWireFlightChunks) {
    raise("protocol: flight chunk count exceeds sanity cap");
  }
  for (std::uint32_t i = 0; i < nchunks; ++i) m.flight += r.read_string();
  if (r.read_u8() != 1) {
    raise("protocol: unknown trace-dump trailer marker");
  }
  for (WireSpan& s : m.spans) {
    s.cycles = r.read_u64();
    s.instructions = r.read_u64();
    s.cache_misses = r.read_u64();
    s.branch_misses = r.read_u64();
  }
  finish(frame, r, "trace-dump-response");
  return m;
}

// -- cluster serving -------------------------------------------------------

Frame OpenSessionAsMsg::to_frame() const {
  Frame f;
  f.type = FrameType::OpenSessionAs;
  append_u32(f.payload, session);
  append_open_fields(f.payload, task_names, bound, policy, snapshot_interval);
  if (epoch != 0) append_u64(f.payload, epoch);  // optional trailer
  return f;
}

OpenSessionAsMsg OpenSessionAsMsg::decode(const Frame& frame) {
  ByteReader r = payload_reader(frame);
  OpenSessionAsMsg m;
  m.session = r.read_u32();
  OpenSessionMsg f = read_open_fields(r, "open-session-as");
  m.task_names = std::move(f.task_names);
  m.bound = f.bound;
  m.policy = f.policy;
  m.snapshot_interval = f.snapshot_interval;
  if (!r.done()) m.epoch = r.read_u64();
  finish(frame, r, "open-session-as");
  return m;
}

SessionConfig OpenSessionAsMsg::to_session_config() const {
  return open_fields_config(bound, policy, snapshot_interval);
}

Frame ClusterMapRequestMsg::to_frame() const {
  Frame f;
  f.type = FrameType::ClusterMapRequest;
  return f;
}

ClusterMapRequestMsg ClusterMapRequestMsg::decode(const Frame& frame) {
  ByteReader r = payload_reader(frame);
  finish(frame, r, "cluster-map-request");
  return {};
}

Frame ClusterMapResponseMsg::to_frame() const {
  BBMG_REQUIRE(shards.size() <= kMaxWireShards,
               "cluster map exceeds wire shard cap");
  Frame f;
  f.type = FrameType::ClusterMapResponse;
  append_u64(f.payload, epoch);
  append_u32(f.payload, static_cast<std::uint32_t>(shards.size()));
  for (const WireShard& s : shards) {
    append_string(f.payload, s.primary);
    append_string(f.payload, s.follower);
  }
  return f;
}

ClusterMapResponseMsg ClusterMapResponseMsg::decode(const Frame& frame) {
  ByteReader r = payload_reader(frame);
  ClusterMapResponseMsg m;
  m.epoch = r.read_u64();
  const std::uint32_t nshards = r.read_count(
      kMaxWireShards, 2 + 2, "protocol: shard count exceeds sanity cap");
  m.shards.reserve(nshards);
  for (std::uint32_t i = 0; i < nshards; ++i) {
    WireShard s;
    s.primary = r.read_string();
    s.follower = r.read_string();
    m.shards.push_back(std::move(s));
  }
  finish(frame, r, "cluster-map-response");
  return m;
}

Frame RedirectMsg::to_frame() const {
  Frame f;
  f.type = FrameType::Redirect;
  append_u64(f.payload, epoch);
  append_u32(f.payload, shard);
  append_string(f.payload, endpoint);
  return f;
}

RedirectMsg RedirectMsg::decode(const Frame& frame) {
  ByteReader r = payload_reader(frame);
  RedirectMsg m;
  m.epoch = r.read_u64();
  m.shard = r.read_u32();
  m.endpoint = r.read_string();
  finish(frame, r, "redirect");
  return m;
}

Frame OpenClusterSessionMsg::to_frame() const {
  Frame f;
  f.type = FrameType::OpenClusterSession;
  append_string(f.payload, key);
  append_open_fields(f.payload, task_names, bound, policy, snapshot_interval);
  if (epoch != 0) append_u64(f.payload, epoch);  // optional trailer
  return f;
}

OpenClusterSessionMsg OpenClusterSessionMsg::decode(const Frame& frame) {
  ByteReader r = payload_reader(frame);
  OpenClusterSessionMsg m;
  m.key = r.read_string();
  if (m.key.empty()) raise("protocol: open-cluster-session key is empty");
  OpenSessionMsg f = read_open_fields(r, "open-cluster-session");
  m.task_names = std::move(f.task_names);
  m.bound = f.bound;
  m.policy = f.policy;
  m.snapshot_interval = f.snapshot_interval;
  if (!r.done()) m.epoch = r.read_u64();
  finish(frame, r, "open-cluster-session");
  return m;
}

SessionConfig OpenClusterSessionMsg::to_session_config() const {
  return open_fields_config(bound, policy, snapshot_interval);
}

// -- control plane ---------------------------------------------------------

Frame MapUpdateMsg::to_frame() const {
  // Reuse the ClusterMapResponse body so the two map encodings can never
  // drift; only the frame type differs.
  Frame f = map.to_frame();
  f.type = FrameType::MapUpdate;
  return f;
}

MapUpdateMsg MapUpdateMsg::decode(const Frame& frame) {
  Frame body = frame;
  body.type = FrameType::ClusterMapResponse;
  MapUpdateMsg m;
  m.map = ClusterMapResponseMsg::decode(body);
  return m;
}

Frame MapUpdateAckMsg::to_frame() const {
  Frame f;
  f.type = FrameType::MapUpdateAck;
  append_u8(f.payload, accepted);
  append_u64(f.payload, epoch);
  return f;
}

MapUpdateAckMsg MapUpdateAckMsg::decode(const Frame& frame) {
  ByteReader r = payload_reader(frame);
  MapUpdateAckMsg m;
  m.accepted = r.read_u8();
  if (m.accepted > 1) raise("protocol: invalid map-update-ack flag");
  m.epoch = r.read_u64();
  finish(frame, r, "map-update-ack");
  return m;
}

// -- ModelReply ------------------------------------------------------------

void append_matrix(std::vector<std::uint8_t>& out, const DependencyMatrix& m) {
  BBMG_REQUIRE(m.num_tasks() <= kMaxTasks, "matrix too large for codec");
  append_u16(out, static_cast<std::uint16_t>(m.num_tasks()));
  append_matrix_cells(out, m);
}

DependencyMatrix read_matrix_payload(ByteReader& r) {
  const std::uint16_t n = r.read_u16();
  if (n > kMaxTasks) raise("protocol: matrix size exceeds sanity cap");
  return read_matrix_cells(r, n, "protocol: ", " in matrix payload");
}

Frame ModelReplyMsg::to_frame() const {
  Frame f;
  f.type = FrameType::ModelReply;
  append_u32(f.payload, session);
  append_u8(f.payload, health);
  append_u64(f.payload, periods_seen);
  append_u64(f.payload, periods_learned);
  append_u64(f.payload, periods_quarantined);
  append_u64(f.payload, repairs);
  append_u8(f.payload, converged);
  append_u32(f.payload, num_hypotheses);
  append_u64(f.payload, weight);
  append_u8(f.payload, verdict);
  append_u32(f.payload, num_violations);
  append_matrix(f.payload, lub);
  return f;
}

ModelReplyMsg ModelReplyMsg::decode(const Frame& frame) {
  ByteReader r = payload_reader(frame);
  ModelReplyMsg m;
  m.session = r.read_u32();
  m.health = r.read_u8();
  if (m.health > static_cast<std::uint8_t>(HealthState::Failed)) {
    raise("protocol: invalid health state in model reply");
  }
  m.periods_seen = r.read_u64();
  m.periods_learned = r.read_u64();
  m.periods_quarantined = r.read_u64();
  m.repairs = r.read_u64();
  m.converged = r.read_u8();
  m.num_hypotheses = r.read_u32();
  m.weight = r.read_u64();
  m.verdict = r.read_u8();
  if (m.verdict > static_cast<std::uint8_t>(ProbeVerdict::Unverifiable)) {
    raise("protocol: invalid probe verdict in model reply");
  }
  m.num_violations = r.read_u32();
  m.lub = read_matrix_payload(r);
  finish(frame, r, "model-reply");
  return m;
}

// -- ErrorReply ------------------------------------------------------------

Frame ErrorReplyMsg::to_frame() const {
  Frame f;
  f.type = FrameType::ErrorReply;
  append_u16(f.payload, static_cast<std::uint16_t>(code));
  append_string(f.payload, message.size() <= kMaxNameLength
                               ? message
                               : message.substr(0, kMaxNameLength));
  return f;
}

ErrorReplyMsg ErrorReplyMsg::decode(const Frame& frame) {
  ByteReader r = payload_reader(frame);
  ErrorReplyMsg m;
  m.code = static_cast<WireErrorCode>(r.read_u16());
  m.message = r.read_string();
  finish(frame, r, "error-reply");
  return m;
}

// -- Metrics ---------------------------------------------------------------

Frame MetricsRequestMsg::to_frame() const {
  Frame f;
  f.type = FrameType::MetricsRequest;
  return f;
}

MetricsRequestMsg MetricsRequestMsg::decode(const Frame& frame) {
  ByteReader r = payload_reader(frame);
  finish(frame, r, "metrics-request");
  return {};
}

Frame MetricsResponseMsg::to_frame() const {
  Frame f;
  f.type = FrameType::MetricsResponse;
  append_u32(f.payload, static_cast<std::uint32_t>(snapshot.counters.size()));
  for (const obs::CounterSample& c : snapshot.counters) {
    append_string(f.payload, c.name);
    append_u64(f.payload, c.value);
  }
  append_u32(f.payload, static_cast<std::uint32_t>(snapshot.gauges.size()));
  for (const obs::GaugeSample& g : snapshot.gauges) {
    append_string(f.payload, g.name);
    append_u64(f.payload, static_cast<std::uint64_t>(g.value));
  }
  append_u32(f.payload,
             static_cast<std::uint32_t>(snapshot.histograms.size()));
  for (const obs::HistogramSample& h : snapshot.histograms) {
    append_string(f.payload, h.name);
    append_u32(f.payload, static_cast<std::uint32_t>(h.upper_bounds.size()));
    for (const std::uint64_t b : h.upper_bounds) append_u64(f.payload, b);
    for (const std::uint64_t c : h.counts) append_u64(f.payload, c);
    append_u64(f.payload, h.sum);
    append_u64(f.payload, h.count);
  }
  return f;
}

MetricsResponseMsg MetricsResponseMsg::decode(const Frame& frame) {
  ByteReader r = payload_reader(frame);
  MetricsResponseMsg m;
  // Per counter or gauge: name length u16 and a u64 value.
  const std::uint32_t ncounters = r.read_count(
      kMaxWireMetrics, 2 + 8, "protocol: counter count exceeds sanity cap");
  m.snapshot.counters.reserve(ncounters);
  for (std::uint32_t i = 0; i < ncounters; ++i) {
    obs::CounterSample c;
    c.name = r.read_string();
    c.value = r.read_u64();
    m.snapshot.counters.push_back(std::move(c));
  }
  const std::uint32_t ngauges = r.read_count(
      kMaxWireMetrics, 2 + 8, "protocol: gauge count exceeds sanity cap");
  m.snapshot.gauges.reserve(ngauges);
  for (std::uint32_t i = 0; i < ngauges; ++i) {
    obs::GaugeSample g;
    g.name = r.read_string();
    g.value = static_cast<std::int64_t>(r.read_u64());
    m.snapshot.gauges.push_back(std::move(g));
  }
  // Per histogram: name length u16, bucket count u32, the +Inf count,
  // sum and count.
  const std::uint32_t nhists =
      r.read_count(kMaxWireMetrics, 2 + 4 + 3 * 8,
                   "protocol: histogram count exceeds sanity cap");
  m.snapshot.histograms.reserve(nhists);
  for (std::uint32_t i = 0; i < nhists; ++i) {
    obs::HistogramSample h;
    h.name = r.read_string();
    // Per bucket: its bound and its count.
    const std::uint32_t nbounds = r.read_count(
        kMaxWireHistogramBuckets, 2 * 8,
        "protocol: histogram bucket count exceeds sanity cap");
    h.upper_bounds.reserve(nbounds);
    for (std::uint32_t b = 0; b < nbounds; ++b) {
      h.upper_bounds.push_back(r.read_u64());
    }
    h.counts.reserve(nbounds + 1);
    for (std::uint32_t b = 0; b < nbounds + 1; ++b) {
      h.counts.push_back(r.read_u64());
    }
    h.sum = r.read_u64();
    h.count = r.read_u64();
    m.snapshot.histograms.push_back(std::move(h));
  }
  finish(frame, r, "metrics-response");
  return m;
}

// -- telemetry plane -------------------------------------------------------

Frame HealthRequestMsg::to_frame() const {
  Frame f;
  f.type = FrameType::HealthRequest;
  return f;
}

HealthRequestMsg HealthRequestMsg::decode(const Frame& frame) {
  ByteReader r = payload_reader(frame);
  finish(frame, r, "health-request");
  return {};
}

Frame HealthResponseMsg::to_frame() const {
  BBMG_REQUIRE(objectives.size() <= kMaxWireObjectives,
               "health response exceeds wire objective cap");
  BBMG_REQUIRE(endpoints.size() <= kMaxWireEndpoints,
               "health response exceeds wire endpoint cap");
  Frame f;
  f.type = FrameType::HealthResponse;
  append_u8(f.payload, overall);
  append_u64(f.payload, evaluated_at_ms);
  append_u32(f.payload, static_cast<std::uint32_t>(objectives.size()));
  for (const WireObjectiveHealth& o : objectives) {
    append_string(f.payload, o.name);
    append_u8(f.payload, o.state);
    append_u64(f.payload, o.fast_burn_micro);
    append_u64(f.payload, o.slow_burn_micro);
    append_string(f.payload, o.detail.size() <= kMaxNameLength
                                 ? o.detail
                                 : o.detail.substr(0, kMaxNameLength));
  }
  append_u32(f.payload, static_cast<std::uint32_t>(endpoints.size()));
  for (const WireEndpointHealth& e : endpoints) {
    append_string(f.payload, e.name);
    append_string(f.payload, e.endpoint);
    append_u8(f.payload, e.state);
    append_u64(f.payload, e.age_ms);
    append_u64(f.payload, e.scrapes);
    append_u64(f.payload, e.failures);
  }
  return f;
}

HealthResponseMsg HealthResponseMsg::decode(const Frame& frame) {
  ByteReader r = payload_reader(frame);
  HealthResponseMsg m;
  m.overall = r.read_u8();
  if (m.overall > kWireAlertPage) {
    raise("protocol: invalid overall alert state in health response");
  }
  m.evaluated_at_ms = r.read_u64();
  // Per objective: name and detail lengths, state u8, two u64 burns.
  const std::uint32_t nobjectives =
      r.read_count(kMaxWireObjectives, 2 + 1 + 2 * 8 + 2,
                   "protocol: objective count exceeds sanity cap");
  m.objectives.reserve(nobjectives);
  for (std::uint32_t i = 0; i < nobjectives; ++i) {
    WireObjectiveHealth o;
    o.name = r.read_string();
    o.state = r.read_u8();
    if (o.state > kWireAlertPage) {
      raise("protocol: invalid objective alert state in health response");
    }
    o.fast_burn_micro = r.read_u64();
    o.slow_burn_micro = r.read_u64();
    o.detail = r.read_string();
    m.objectives.push_back(std::move(o));
  }
  // Per endpoint: two string lengths, state u8, three u64 fields.
  const std::uint32_t nendpoints =
      r.read_count(kMaxWireEndpoints, 2 + 2 + 1 + 3 * 8,
                   "protocol: endpoint count exceeds sanity cap");
  m.endpoints.reserve(nendpoints);
  for (std::uint32_t i = 0; i < nendpoints; ++i) {
    WireEndpointHealth e;
    e.name = r.read_string();
    e.endpoint = r.read_string();
    e.state = r.read_u8();
    if (e.state > kWireEndpointDown) {
      raise("protocol: invalid endpoint state in health response");
    }
    e.age_ms = r.read_u64();
    e.scrapes = r.read_u64();
    e.failures = r.read_u64();
    m.endpoints.push_back(std::move(e));
  }
  finish(frame, r, "health-response");
  return m;
}

// -- version-space introspection -------------------------------------------

Frame VspaceRequestMsg::to_frame() const {
  Frame f;
  f.type = FrameType::VspaceRequest;
  append_u32(f.payload, session);
  return f;
}

VspaceRequestMsg VspaceRequestMsg::decode(const Frame& frame) {
  ByteReader r = payload_reader(frame);
  VspaceRequestMsg m;
  m.session = r.read_u32();
  finish(frame, r, "vspace-request");
  return m;
}

namespace {

/// Bucket-count cap for vspace histograms on the wire: a power-of-two
/// ladder over u64 has at most 64 distinct bounds, so anything larger is
/// garbage.
inline constexpr std::size_t kMaxWireVspaceBuckets = 64;

void append_vspace_hist(std::vector<std::uint8_t>& out,
                        const VspaceHistogramSnapshot& h) {
  BBMG_REQUIRE(h.counts.size() == h.bounds.size() + 1,
               "vspace histogram shape mismatch");
  BBMG_REQUIRE(h.bounds.size() <= kMaxWireVspaceBuckets,
               "vspace histogram exceeds wire bucket cap");
  append_u64(out, h.sum);
  append_u64(out, h.count);
  // Bounds are structural (1, 2, 4, ...) — only their number rides the
  // wire; the decoder regenerates the ladder.
  append_u32(out, static_cast<std::uint32_t>(h.bounds.size()));
  for (const std::uint64_t c : h.counts) append_u64(out, c);
}

VspaceHistogramSnapshot read_vspace_hist(ByteReader& r) {
  VspaceHistogramSnapshot h;
  h.sum = r.read_u64();
  h.count = r.read_u64();
  // Per bucket: its u64 count (the bounds are not on the wire).
  const std::uint32_t nbuckets = r.read_count(
      kMaxWireVspaceBuckets, 8,
      "protocol: vspace histogram bucket count exceeds sanity cap");
  h.bounds.reserve(nbuckets);
  std::uint64_t bound = 1;
  for (std::uint32_t i = 0; i < nbuckets; ++i) {
    h.bounds.push_back(bound);
    bound <<= 1;
  }
  h.counts.reserve(nbuckets + 1u);
  for (std::uint32_t i = 0; i < nbuckets + 1u; ++i) {
    h.counts.push_back(r.read_u64());
  }
  return h;
}

}  // namespace

Frame VspaceResponseMsg::to_frame() const {
  Frame f;
  f.type = FrameType::VspaceResponse;
  append_u32(f.payload, session);
  append_u64(f.payload, stats.periods);
  append_u64(f.payload, stats.hypotheses);
  append_u64(f.payload, stats.peak_hypotheses);
  append_u64(f.payload, stats.frontier_bytes);
  append_u64(f.payload, stats.peak_frontier_bytes);
  append_u64(f.payload, stats.alloc_bytes);
  append_u64(f.payload, stats.allocs);
  append_vspace_hist(f.payload, stats.branching);
  append_vspace_hist(f.payload, stats.scan);
  return f;
}

VspaceResponseMsg VspaceResponseMsg::decode(const Frame& frame) {
  ByteReader r = payload_reader(frame);
  VspaceResponseMsg m;
  m.session = r.read_u32();
  m.stats.periods = r.read_u64();
  m.stats.hypotheses = r.read_u64();
  m.stats.peak_hypotheses = r.read_u64();
  m.stats.frontier_bytes = r.read_u64();
  m.stats.peak_frontier_bytes = r.read_u64();
  m.stats.alloc_bytes = r.read_u64();
  m.stats.allocs = r.read_u64();
  m.stats.branching = read_vspace_hist(r);
  m.stats.scan = read_vspace_hist(r);
  finish(frame, r, "vspace-response");
  return m;
}

}  // namespace bbmg
