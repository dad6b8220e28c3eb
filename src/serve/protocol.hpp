// Framed wire protocol of the learning service, built on the binary codec
// (trace/binary_codec.hpp).  Every frame is
//
//   length u32 (payload bytes) | type u8 | payload
//
// and a connection opens with a Hello/HelloAck pair carrying the protocol
// magic and version, so a peer speaking the wrong protocol (or a text
// client hitting the port) is rejected on the first frame.  All encoding
// is little-endian; decode is bounds-checked and throws bbmg::Error on
// truncated or malformed payloads — a garbage frame can kill its own
// connection, never the server.
//
// Both peers are built from this tree, so there is exactly one protocol
// version: Hello carries kServeProtocolVersion and any other version is
// rejected, as is every frame sent before Hello and every frame type above
// kMaxFrameType (only corruption produces one).
//
// Conversation (client-driven, one reply per request except Events,
// EndPeriod and TraceContext, which are fire-and-forget so period
// streaming is not round-trip bound):
//
//   Hello              -> HelloAck
//   OpenSession        -> SessionOpened | ErrorReply
//   Events             (accumulates the current period, no reply)
//   EndPeriod          (submits the period, no reply; lossless — the server
//                       blocks on its shard queue, so TCP itself carries the
//                       backpressure to the producer.  Carries a client
//                       sequence number so the server drops duplicates
//                       after a reconnect)
//   Query              -> ModelReply | ErrorReply  (optionally drains
//                       first, optionally carries a probe period to check)
//   CloseSession       -> SessionClosed | ErrorReply
//   MetricsRequest     -> MetricsResponse  (process-wide observability
//                       snapshot: every registered counter/gauge/histogram)
//   Resume             -> ResumeAck | ErrorReply  (the server's durable
//                       high-water mark for the session, so a reconnecting
//                       client knows which periods to resend)
//   TraceContext       (envelope: attaches a {trace id, parent span id}
//                       pair to the *next* request frame, so the server
//                       continues the client's trace as child spans)
//   TraceDumpRequest   -> TraceDumpResponse  (the server's span ring with
//                       per-span hardware counters, and optionally its
//                       flight-recorder dump, for merged Chrome traces)
//   ClusterMapRequest  -> ClusterMapResponse | ErrorReply  (the shard's
//                       view of the cluster map: epoch + per-shard primary
//                       and follower endpoints)
//   OpenClusterSession -> SessionOpened | Redirect | ErrorReply  (open a
//                       session routed by a client-chosen key; a shard that
//                       does not own the key answers Redirect with the
//                       owner's endpoint instead of opening locally)
//   OpenSessionAs      -> SessionOpened | ErrorReply  (open a session with
//                       an explicit id — the WAL-replication path: a
//                       primary mirrors its session onto its follower under
//                       the same id.  Idempotent when the id already exists
//                       with the same task universe)
//   HealthRequest      -> HealthResponse | ErrorReply  (the SLO engine's
//                       verdict, answered by bbmg_monitor; a plain
//                       bbmg_served answers ErrorReply(Internal) pointing at
//                       the monitor)
//   MapUpdate          -> MapUpdateAck | ErrorReply  (the controller pushes
//                       a new epoch-stamped cluster map; the daemon installs
//                       it only when the epoch is strictly higher)
//   VspaceRequest      -> VspaceResponse | ErrorReply  (live version-space
//                       introspection for one session — `bbmg_client
//                       vspace`)
//
// Epoch fencing: EndPeriod, OpenSessionAs and OpenClusterSession carry the
// writer's map epoch as a trailing field, omitted when the epoch is 0 (an
// unfenced writer).  A daemon whose fence floor has advanced past the
// stamped epoch rejects the write with ErrorReply(Fenced), so a resurrected
// stale primary cannot accept writes its successor already owns.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/vspace_stats.hpp"
#include "lattice/dependency_matrix.hpp"
#include "obs/metrics.hpp"
#include "serve/session_manager.hpp"
#include "trace/binary_codec.hpp"

namespace bbmg {

inline constexpr std::uint32_t kServeMagic = 0x474d4242u;  // "BBMG"
/// The only version spoken; a Hello carrying any other is rejected.
inline constexpr std::uint16_t kServeProtocolVersion = 7;
/// Frames larger than this are rejected before allocation (garbage guard).
/// This is the hard upper bound; FrameDecoder::set_max_payload can lower
/// it per decoder (e.g. a memory-constrained ingest front-end).
inline constexpr std::size_t kMaxFramePayload = 64u << 20;

/// Typed rejection for a frame whose declared length exceeds the
/// decoder's cap, so callers can distinguish "peer sent a huge frame"
/// (policy decision, maybe reject the connection with a specific error)
/// from generic stream corruption.
class FrameTooLarge : public Error {
 public:
  FrameTooLarge(std::size_t declared, std::size_t cap)
      : Error("protocol: frame payload of " + std::to_string(declared) +
              " bytes exceeds the decoder cap of " + std::to_string(cap)),
        declared_(declared),
        cap_(cap) {}
  [[nodiscard]] std::size_t declared() const { return declared_; }
  [[nodiscard]] std::size_t cap() const { return cap_; }

 private:
  std::size_t declared_;
  std::size_t cap_;
};

enum class FrameType : std::uint8_t {
  Hello = 1,
  HelloAck = 2,
  OpenSession = 3,
  SessionOpened = 4,
  Events = 5,
  EndPeriod = 6,
  Query = 7,
  ModelReply = 8,
  CloseSession = 9,
  SessionClosed = 10,
  ErrorReply = 11,
  MetricsRequest = 12,
  MetricsResponse = 13,
  Resume = 14,
  ResumeAck = 15,
  TraceContext = 16,
  TraceDumpRequest = 17,
  TraceDumpResponse = 18,
  OpenSessionAs = 19,
  ClusterMapRequest = 20,
  ClusterMapResponse = 21,
  Redirect = 22,
  OpenClusterSession = 23,
  HealthRequest = 24,
  HealthResponse = 25,
  MapUpdate = 26,
  MapUpdateAck = 27,
  VspaceRequest = 28,
  VspaceResponse = 29,
};

/// Highest FrameType value; the decoder rejects type 0 and every type
/// above this as stream corruption.
inline constexpr std::uint8_t kMaxFrameType =
    static_cast<std::uint8_t>(FrameType::VspaceResponse);

struct Frame {
  FrameType type{FrameType::Hello};
  std::vector<std::uint8_t> payload;
};

/// Append the framed encoding (length, type, payload) to a byte buffer.
void append_frame(std::vector<std::uint8_t>& out, const Frame& frame);

/// The connection gate every daemon applies: throws bbmg::Error for any
/// frame but Hello on a connection that has not been greeted yet.
void require_hello_first(bool greeted, FrameType type);

/// Incremental frame parser for a byte stream: feed() arbitrary chunks,
/// next() yields complete frames in order.  Throws FrameTooLarge on an
/// oversized length field and bbmg::Error on a frame type outside
/// [1, kMaxFrameType], both as soon as the 5-byte header has arrived.
class FrameDecoder {
 public:
  void feed(const std::uint8_t* data, std::size_t size);
  [[nodiscard]] std::optional<Frame> next();
  [[nodiscard]] std::size_t buffered() const { return buffer_.size() - consumed_; }

  /// Lower the per-frame payload cap below kMaxFramePayload (values above
  /// the global cap are clamped, 0 keeps the current cap).  Applies to
  /// frames parsed after the call.
  void set_max_payload(std::size_t cap);
  [[nodiscard]] std::size_t max_payload() const { return max_payload_; }

 private:
  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_{0};
  std::size_t max_payload_{kMaxFramePayload};
};

// -- payload schemas -------------------------------------------------------

struct HelloMsg {
  std::uint32_t magic{kServeMagic};
  std::uint16_t version{kServeProtocolVersion};
  [[nodiscard]] Frame to_frame(FrameType type) const;
  [[nodiscard]] static HelloMsg decode(const Frame& frame);
};

struct OpenSessionMsg {
  std::vector<std::string> task_names;
  std::uint32_t bound{16};
  SanitizePolicy policy{SanitizePolicy::Repair};
  std::uint32_t snapshot_interval{1};
  [[nodiscard]] Frame to_frame() const;
  [[nodiscard]] static OpenSessionMsg decode(const Frame& frame);
  [[nodiscard]] SessionConfig to_session_config() const;
};

struct SessionRefMsg {  // SessionOpened / CloseSession / SessionClosed / Resume
  std::uint32_t session{0};
  [[nodiscard]] Frame to_frame(FrameType type) const;
  [[nodiscard]] static SessionRefMsg decode(const Frame& frame);
};

struct EndPeriodMsg {
  std::uint32_t session{0};
  /// Client-assigned period sequence number for idempotent resume after a
  /// reconnect; 0 = unsequenced (the server applies unconditionally).
  /// Sequenced submissions must be 1, 2, 3, ... per session, one producer
  /// per session; the server drops any seq at or below its high-water
  /// mark as an already-applied duplicate.
  std::uint64_t seq{0};
  /// The writer's cluster-map epoch, 0 = unfenced writer.  Encoded only
  /// when nonzero (trailing optional field), decoded as 0 when absent.
  std::uint64_t epoch{0};
  [[nodiscard]] Frame to_frame() const;
  [[nodiscard]] static EndPeriodMsg decode(const Frame& frame);
};

struct ResumeAckMsg {
  std::uint32_t session{0};
  /// The server's durable high-water mark: every sequenced period with
  /// seq <= high_water is fsynced to the WAL (or captured by a snapshot)
  /// and will survive a crash; the client resends from high_water + 1.
  std::uint64_t high_water{0};
  [[nodiscard]] Frame to_frame() const;
  [[nodiscard]] static ResumeAckMsg decode(const Frame& frame);
};

struct EventsMsg {
  std::uint32_t session{0};
  std::vector<Event> events;
  [[nodiscard]] Frame to_frame() const;
  [[nodiscard]] static EventsMsg decode(const Frame& frame);
};

struct QueryMsg {
  std::uint32_t session{0};
  bool drain{true};
  /// Probe period to conformance-check against the served model.
  std::optional<std::vector<Event>> probe;
  [[nodiscard]] Frame to_frame() const;
  [[nodiscard]] static QueryMsg decode(const Frame& frame);
};

struct ModelReplyMsg {
  std::uint32_t session{0};
  std::uint8_t health{0};  // HealthState
  std::uint64_t periods_seen{0};
  std::uint64_t periods_learned{0};
  std::uint64_t periods_quarantined{0};
  std::uint64_t repairs{0};
  std::uint8_t converged{0};
  std::uint32_t num_hypotheses{0};
  std::uint64_t weight{0};  // of the dLUB summary
  std::uint8_t verdict{0};  // ProbeVerdict
  std::uint32_t num_violations{0};
  DependencyMatrix lub;
  [[nodiscard]] Frame to_frame() const;
  [[nodiscard]] static ModelReplyMsg decode(const Frame& frame);
};

enum class WireErrorCode : std::uint16_t {
  BadFrame = 1,
  UnknownSession = 2,
  Overflow = 3,
  Internal = 4,
  /// The write carried a cluster-map epoch below the daemon's fence
  /// floor — the writer's regime has been deposed; refetch the map.
  Fenced = 5,
};

struct ErrorReplyMsg {
  WireErrorCode code{WireErrorCode::BadFrame};
  std::string message;
  [[nodiscard]] Frame to_frame() const;
  [[nodiscard]] static ErrorReplyMsg decode(const Frame& frame);
};

/// Sanity caps for metrics payloads (a snapshot is small; a frame claiming
/// otherwise is garbage).
inline constexpr std::size_t kMaxWireMetrics = 1u << 16;
inline constexpr std::size_t kMaxWireHistogramBuckets = 1u << 10;

struct MetricsRequestMsg {
  [[nodiscard]] Frame to_frame() const;
  [[nodiscard]] static MetricsRequestMsg decode(const Frame& frame);
};

/// A full observability snapshot on the wire: every registered counter,
/// gauge and histogram by name (obs/metrics.hpp).  Gauges are signed and
/// carried as two's-complement u64.
struct MetricsResponseMsg {
  obs::MetricsSnapshot snapshot;
  [[nodiscard]] Frame to_frame() const;
  [[nodiscard]] static MetricsResponseMsg decode(const Frame& frame);
};

// -- causal tracing --------------------------------------------------------

/// Sanity cap on spans in one TraceDumpResponse (a span ring is bounded;
/// a frame claiming more is garbage).
inline constexpr std::size_t kMaxWireSpans = 1u << 20;
/// Flight-recorder text is carried as <= kMaxNameLength chunks; cap their
/// number (bounds the dump at ~64 MiB, far above the recorder's ring).
inline constexpr std::size_t kMaxWireFlightChunks = 1u << 14;

/// Envelope: attaches the client's trace id and calling span id to the
/// next request frame on this connection; an envelope with no following
/// request is simply dropped.
struct TraceContextMsg {
  std::uint64_t trace_id{0};
  std::uint64_t span_id{0};
  [[nodiscard]] Frame to_frame() const;
  [[nodiscard]] static TraceContextMsg decode(const Frame& frame);
};

struct TraceDumpRequestMsg {
  /// Drain the server's span ring (true) or copy it non-destructively.
  bool drain{true};
  /// Also include the flight-recorder dump text.
  bool flight{false};
  [[nodiscard]] Frame to_frame() const;
  [[nodiscard]] static TraceDumpRequestMsg decode(const Frame& frame);
};

/// One span on the wire: SpanRecord with an owned name.
struct WireSpan {
  std::string name;
  std::uint32_t tid{0};
  std::uint64_t start_ns{0};
  std::uint64_t duration_ns{0};
  std::uint64_t trace_id{0};
  std::uint64_t span_id{0};
  std::uint64_t parent_id{0};
  std::uint8_t flow{0};
  /// Hardware counters sampled over the span (zero when the span was
  /// recorded without a PerfCounterGroup).
  std::uint64_t cycles{0};
  std::uint64_t instructions{0};
  std::uint64_t cache_misses{0};
  std::uint64_t branch_misses{0};
};

struct TraceDumpResponseMsg {
  /// The server's monotonic clock (obs::now_ns) at encode time; the
  /// client aligns timelines with offset = client_now - server_now.
  std::uint64_t server_now_ns{0};
  /// Spans evicted from the ring before they could be read
  /// (bbmg_obs_span_drops_total's ring share).
  std::uint64_t drops{0};
  std::vector<WireSpan> spans;
  /// Flight-recorder dump text (empty unless requested).
  std::string flight;
  [[nodiscard]] Frame to_frame() const;
  [[nodiscard]] static TraceDumpResponseMsg decode(const Frame& frame);
};

// -- cluster serving -------------------------------------------------------

/// Sanity cap on shards in one ClusterMapResponse (a map is operator
/// configuration; a frame claiming more is garbage).
inline constexpr std::size_t kMaxWireShards = 1u << 10;

/// OpenSession with an explicit session id — the WAL-replication path: a
/// primary opens its session on the follower under the primary's id, so a
/// client that fails over reattaches (Resume) by the id it already holds.
/// Idempotent: re-opening an existing id with the same task universe
/// answers SessionOpened again instead of erroring, so a replicator that
/// lost an ack can safely retry.
struct OpenSessionAsMsg {
  std::uint32_t session{0};
  std::vector<std::string> task_names;
  std::uint32_t bound{16};
  SanitizePolicy policy{SanitizePolicy::Repair};
  std::uint32_t snapshot_interval{1};
  /// Optional trailing field, see EndPeriodMsg::epoch.
  std::uint64_t epoch{0};
  [[nodiscard]] Frame to_frame() const;
  [[nodiscard]] static OpenSessionAsMsg decode(const Frame& frame);
  [[nodiscard]] SessionConfig to_session_config() const;
};

/// One shard's endpoints in a ClusterMapResponse, as "host:port" strings
/// (an empty follower means the shard replicates nowhere).
struct WireShard {
  std::string primary;
  std::string follower;
};

struct ClusterMapRequestMsg {
  [[nodiscard]] Frame to_frame() const;
  [[nodiscard]] static ClusterMapRequestMsg decode(const Frame& frame);
};

struct ClusterMapResponseMsg {
  /// Map generation; a client replaces its cached map only with a higher
  /// epoch (promotion bumps the epoch).
  std::uint64_t epoch{0};
  std::vector<WireShard> shards;
  [[nodiscard]] Frame to_frame() const;
  [[nodiscard]] static ClusterMapResponseMsg decode(const Frame& frame);
};

/// "Not my key": the answering shard names the owner so the client can
/// re-route without refetching the whole map.
struct RedirectMsg {
  std::uint64_t epoch{0};
  std::uint32_t shard{0};
  std::string endpoint;  // "host:port" of the owning shard's primary
  [[nodiscard]] Frame to_frame() const;
  [[nodiscard]] static RedirectMsg decode(const Frame& frame);
};

/// OpenSession routed by a client-chosen key: the shard that owns
/// shard_for(key) under the current map opens the session and answers
/// SessionOpened; any other shard answers Redirect.
struct OpenClusterSessionMsg {
  std::string key;
  std::vector<std::string> task_names;
  std::uint32_t bound{16};
  SanitizePolicy policy{SanitizePolicy::Repair};
  std::uint32_t snapshot_interval{1};
  /// Optional trailing field, see EndPeriodMsg::epoch.
  std::uint64_t epoch{0};
  [[nodiscard]] Frame to_frame() const;
  [[nodiscard]] static OpenClusterSessionMsg decode(const Frame& frame);
  [[nodiscard]] SessionConfig to_session_config() const;
};

// -- control plane ---------------------------------------------------------

/// The controller pushes a new cluster map into a live daemon.  Payload is
/// a ClusterMapResponseMsg body (epoch + shards); the daemon installs it
/// only when the epoch is strictly higher than its current one and answers
/// MapUpdateAck either way.
struct MapUpdateMsg {
  ClusterMapResponseMsg map;
  [[nodiscard]] Frame to_frame() const;
  [[nodiscard]] static MapUpdateMsg decode(const Frame& frame);
};

struct MapUpdateAckMsg {
  /// 1 when the pushed map was installed, 0 when it was ignored (stale or
  /// equal epoch).
  std::uint8_t accepted{0};
  /// The daemon's map epoch after the push (its current epoch on reject).
  std::uint64_t epoch{0};
  [[nodiscard]] Frame to_frame() const;
  [[nodiscard]] static MapUpdateAckMsg decode(const Frame& frame);
};

// -- telemetry plane -------------------------------------------------------

/// Sanity caps for health payloads (objectives and endpoints are operator
/// configuration; a frame claiming more is garbage).
inline constexpr std::size_t kMaxWireObjectives = 1u << 10;
inline constexpr std::size_t kMaxWireEndpoints = 1u << 12;

/// Alert states on the wire (monitor/slo.hpp's AlertState).
inline constexpr std::uint8_t kWireAlertOk = 0;
inline constexpr std::uint8_t kWireAlertWarn = 1;
inline constexpr std::uint8_t kWireAlertPage = 2;

/// Scrape-endpoint states on the wire (monitor/scraper.hpp's
/// EndpointState).
inline constexpr std::uint8_t kWireEndpointNever = 0;
inline constexpr std::uint8_t kWireEndpointOk = 1;
inline constexpr std::uint8_t kWireEndpointStale = 2;
inline constexpr std::uint8_t kWireEndpointDown = 3;

struct HealthRequestMsg {
  [[nodiscard]] Frame to_frame() const;
  [[nodiscard]] static HealthRequestMsg decode(const Frame& frame);
};

/// One SLO objective's verdict.  Burn rates ride as fixed-point
/// micro-burns (burn * 1e6) so the payload stays integer-only like every
/// other frame.
struct WireObjectiveHealth {
  std::string name;
  std::uint8_t state{kWireAlertOk};
  std::uint64_t fast_burn_micro{0};
  std::uint64_t slow_burn_micro{0};
  /// Human-readable evaluation detail ("fast 12.1x / slow 9.3x over ...").
  std::string detail;
};

/// One scraped endpoint's freshness.
struct WireEndpointHealth {
  std::string name;
  std::string endpoint;  // "host:port", empty for in-process registries
  std::uint8_t state{kWireEndpointNever};
  /// Milliseconds since the last successful scrape (0 when never scraped).
  std::uint64_t age_ms{0};
  std::uint64_t scrapes{0};
  std::uint64_t failures{0};
};

struct HealthResponseMsg {
  std::uint8_t overall{kWireAlertOk};
  /// Monitor wall-clock ms when the verdict was evaluated.
  std::uint64_t evaluated_at_ms{0};
  std::vector<WireObjectiveHealth> objectives;
  std::vector<WireEndpointHealth> endpoints;
  [[nodiscard]] Frame to_frame() const;
  [[nodiscard]] static HealthResponseMsg decode(const Frame& frame);
};

// -- version-space introspection -------------------------------------------

struct VspaceRequestMsg {
  std::uint32_t session{0};
  [[nodiscard]] Frame to_frame() const;
  [[nodiscard]] static VspaceRequestMsg decode(const Frame& frame);
};

/// A VspaceSnapshot on the wire (core/vspace_stats.hpp): scalar gauges
/// followed by the two fixed-shape histograms.  Histograms ride as
/// (sum, count, bucket counts); the bucket bounds are structural
/// (power-of-two ladder) and regenerated by the decoder.
struct VspaceResponseMsg {
  std::uint32_t session{0};
  VspaceSnapshot stats;
  [[nodiscard]] Frame to_frame() const;
  [[nodiscard]] static VspaceResponseMsg decode(const Frame& frame);
};

// -- matrix payload helpers (shared by ModelReply and tests) ---------------

void append_matrix(std::vector<std::uint8_t>& out, const DependencyMatrix& m);
[[nodiscard]] DependencyMatrix read_matrix_payload(ByteReader& r);

}  // namespace bbmg
