// Client side of the learning service: connect, open sessions, stream
// periods, fetch model snapshots.  The library half of bbmg_client, also
// used by the end-to-end tests and the live-serve example.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "lattice/dependency_matrix.hpp"
#include "obs/trace_context.hpp"
#include "robust/robust_online_learner.hpp"
#include "serve/protocol.hpp"
#include "trace/trace.hpp"

namespace bbmg {

/// Typed Redirect reply to open_cluster_session: the addressed shard does
/// not own the key under its map.  Carries the owner so the caller can
/// re-route without refetching the whole map.  Deliberately NOT retried by
/// ResilientClient — a redirect is an answer, not a failure.
class Redirected : public Error {
 public:
  explicit Redirected(RedirectMsg redirect)
      : Error("client: redirected to shard " + std::to_string(redirect.shard) +
              " at " + redirect.endpoint + " (map epoch " +
              std::to_string(redirect.epoch) + ")"),
        redirect_(std::move(redirect)) {}
  [[nodiscard]] const RedirectMsg& redirect() const { return redirect_; }

 private:
  RedirectMsg redirect_;
};

/// Typed ErrorReply from the server: keeps the wire code so callers can
/// react to a specific failure — e.g. UnknownSession during a failover
/// resume, where the follower never heard of the session and the client
/// must re-create it — without parsing message text.
class ServerError : public Error {
 public:
  ServerError(WireErrorCode code, const std::string& message)
      : Error("client: server error " +
              std::to_string(static_cast<int>(code)) + ": " + message),
        code_(code) {}
  [[nodiscard]] WireErrorCode code() const { return code_; }

 private:
  WireErrorCode code_;
};

/// Typed ErrorReply(Fenced) from the server: the epoch this client
/// stamped on a write is below the node's fence floor — its regime was
/// deposed by an automated failover.  NOT retried by ResilientClient (the
/// same endpoint would fence it again); the cluster client reacts by
/// refetching the map and re-pointing at the new primary.
class FencedError : public ServerError {
 public:
  explicit FencedError(const std::string& message)
      : ServerError(WireErrorCode::Fenced, message) {}
};

/// A model snapshot as it came over the wire.
struct WireSnapshot {
  std::uint32_t session{0};
  HealthState health{HealthState::OK};
  std::uint64_t periods_seen{0};
  std::uint64_t periods_learned{0};
  std::uint64_t periods_quarantined{0};
  std::uint64_t repairs{0};
  bool converged{false};
  std::uint32_t num_hypotheses{0};
  std::uint64_t weight{0};
  ProbeVerdict verdict{ProbeVerdict::None};
  std::uint32_t num_violations{0};
  DependencyMatrix lub;
};

class ServeClient {
 public:
  ServeClient() = default;
  ~ServeClient();

  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;

  /// TCP connect + Hello/HelloAck handshake; throws bbmg::Error on refusal
  /// or protocol mismatch.
  void connect(const std::string& host, std::uint16_t port);
  void disconnect();
  [[nodiscard]] bool connected() const { return fd_ >= 0; }

  /// Per-request deadline: every socket read/write after the next connect
  /// fails with a deadline error instead of blocking forever (0 = never
  /// time out, the default).  Applied at connect time.
  void set_request_timeout_ms(std::uint32_t timeout_ms) {
    request_timeout_ms_ = timeout_ms;
  }

  [[nodiscard]] std::uint32_t open_session(
      const std::vector<std::string>& task_names, std::uint32_t bound = 16,
      SanitizePolicy policy = SanitizePolicy::Repair,
      std::uint32_t snapshot_interval = 1);

  /// Open a session under an explicit id — the WAL replication path: a
  /// primary mirrors its session onto the follower under the id the
  /// clients already hold.  Idempotent server-side.
  void open_session_as(std::uint32_t session,
                       const std::vector<std::string>& task_names,
                       std::uint32_t bound = 16,
                       SanitizePolicy policy = SanitizePolicy::Repair,
                       std::uint32_t snapshot_interval = 1);

  /// Open a session routed by a consistent-hash key.  Returns the new
  /// session id when this shard owns the key; throws Redirected naming the
  /// owner otherwise.
  [[nodiscard]] std::uint32_t open_cluster_session(
      const std::string& key, const std::vector<std::string>& task_names,
      std::uint32_t bound = 16, SanitizePolicy policy = SanitizePolicy::Repair,
      std::uint32_t snapshot_interval = 1);

  /// Fetch the server's cluster map (errors when the server is not in
  /// cluster mode).
  [[nodiscard]] ClusterMapResponseMsg fetch_cluster_map();

  /// Push a new cluster map into a live daemon — the controller's failover
  /// propagation path.  Returns the daemon's ack: accepted=1 when the map
  /// was installed (strictly higher epoch).
  [[nodiscard]] MapUpdateAckMsg push_map_update(
      const ClusterMapResponseMsg& map);

  /// Stamp every subsequent session-mutating request (EndPeriod,
  /// OpenSessionAs, OpenClusterSession) with this cluster-map epoch so
  /// fenced daemons can reject writes from a deposed regime.  0 (the
  /// default) sends unfenced writes.
  void set_write_epoch(std::uint64_t epoch) { write_epoch_ = epoch; }
  [[nodiscard]] std::uint64_t write_epoch() const { return write_epoch_; }

  /// Stream one raw period (Events + EndPeriod, fire-and-forget).  seq,
  /// when non-zero, is the idempotence sequence number for the period
  /// (must be 1, 2, 3, ... per session); the server drops duplicates at or
  /// below its high-water mark, making resends after a reconnect safe.
  /// An active `ctx` rides ahead of the period as a TraceContext envelope,
  /// so the server continues the trace as child spans.
  void send_period(std::uint32_t session, const std::vector<Event>& events,
                   std::uint64_t seq = 0,
                   const obs::TraceContext& ctx = {});

  /// Ask the server for the session's durable high-water mark: the highest
  /// sequence number whose period is applied AND fsynced.  Everything above
  /// it must be re-sent after a reconnect.
  [[nodiscard]] std::uint64_t resume(std::uint32_t session);

  /// Stream every period of a trace; returns the number of periods sent.
  std::size_t send_trace(std::uint32_t session, const Trace& trace);

  /// Fetch the served model.  drain=true waits until everything this
  /// client submitted has been learned from; probe, if given, is
  /// conformance-checked server-side against the served model.
  [[nodiscard]] WireSnapshot query(std::uint32_t session, bool drain = true,
                                   const std::vector<Event>* probe = nullptr,
                                   const obs::TraceContext& ctx = {});

  void close_session(std::uint32_t session);

  /// Fetch the server's process-wide observability snapshot (every
  /// registered counter, gauge and histogram; all zeros when the server
  /// was built with BBMG_OBS=OFF).
  [[nodiscard]] obs::MetricsSnapshot fetch_metrics();

  /// Pull the server's span ring over the wire.  drain=false copies
  /// non-destructively; flight=true also carries the server's
  /// flight-recorder dump text.
  [[nodiscard]] TraceDumpResponseMsg fetch_trace_dump(bool drain = true,
                                                      bool flight = false);

  /// Fetch the peer's SLO/health verdict.  Answered authoritatively by
  /// bbmg_monitor; a plain bbmg_served replies with a ServerError pointing
  /// at the monitor.
  [[nodiscard]] HealthResponseMsg fetch_health();

  /// Fetch one session's live version-space introspection: hypothesis
  /// count/peak, frontier bytes, learning heap churn, and the
  /// branching/scan-length histograms.
  [[nodiscard]] VspaceResponseMsg fetch_vspace(std::uint32_t session);

 private:
  /// Read the next frame and return it when it has the expected type.
  /// ErrorReply throws ServerError (FencedError for Fenced), Redirect
  /// throws Redirected, and anything else is a protocol error.
  [[nodiscard]] Frame expect_reply(FrameType expected);

  int fd_{-1};
  FrameDecoder decoder_;
  std::uint32_t request_timeout_ms_{0};
  std::uint64_t write_epoch_{0};
};

}  // namespace bbmg
