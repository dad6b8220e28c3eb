// ResilientClient: a crash-tolerant wrapper around ServeClient.
//
// Every period is sent with a client-assigned sequence number (1, 2, 3,
// ... per session) and kept in an unacked buffer until the server's
// durable high-water mark — fetched via Resume/ResumeAck — covers it.
// When any request fails (connection reset, deadline, server restart) the
// client backs off exponentially with jitter, reconnects, resumes every
// open session to learn what survived, resends the unacked tail, and
// retries the original request.  Because the server drops sequenced
// duplicates at or below its high-water mark, resending is idempotent:
// the learned model after any number of crash/retry cycles is exactly the
// model of the uninterrupted stream (the crash-recovery test's property).
//
// Single-threaded: one ResilientClient per producer, matching the
// one-producer-per-session contract of the sequence numbers.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "serve/client.hpp"

namespace bbmg {

struct RetryConfig {
  /// Retries per request after the first attempt (so max_retries + 1
  /// attempts total); the last failure propagates to the caller.  Ignored
  /// when retry_budget_ms is set — see below.
  std::size_t max_retries{5};
  /// First backoff delay; doubles per retry up to max_backoff_ms.
  std::uint32_t base_backoff_ms{50};
  std::uint32_t max_backoff_ms{2000};
  /// Uniform jitter fraction applied to each delay (0.2 = +/-20%),
  /// de-synchronizing clients that observed the same server restart.
  double jitter{0.2};
  /// Per-request socket deadline handed to ServeClient (0 = block forever).
  std::uint32_t request_timeout_ms{5000};
  /// Trim the unacked buffer with a Resume round-trip every N sends;
  /// bounds client memory to ~N periods per session.
  std::size_t ack_interval{64};
  /// Seed for the jitter RNG (deterministic tests).
  std::uint64_t seed{1};
  /// Total wall-clock budget for one logical operation including all of
  /// its retries and backoffs (0 = no budget; max_retries bounds the
  /// attempts).  When set, the budget alone decides when to give up and
  /// max_retries is ignored: failures are not all equally priced —
  /// connection-refused during a server cold start is near-instant, and
  /// counting such failures against max_retries would exhaust the
  /// allowance long before the time the caller actually granted.  Under a
  /// permanent partition the per-request deadline bounds each attempt and
  /// the budget bounds the *sum*; when it is exhausted the operation
  /// fails with RetriesExhausted.
  std::uint32_t retry_budget_ms{0};
};

/// Terminal retry failure: the operation burned through max_retries or
/// the retry_budget_ms window without one attempt landing.  Carries the
/// attempt count, elapsed wall time, and the last underlying error text,
/// so callers (cluster failover) can branch on the type while logs keep
/// the root cause.
class RetriesExhausted : public Error {
 public:
  RetriesExhausted(std::size_t attempts, std::uint64_t elapsed_ms,
                   const std::string& last_error)
      : Error("resilient client: retries exhausted after " +
              std::to_string(attempts) + " attempt(s) in " +
              std::to_string(elapsed_ms) + " ms; last error: " + last_error),
        attempts_(attempts),
        elapsed_ms_(elapsed_ms),
        last_error_(last_error) {}
  [[nodiscard]] std::size_t attempts() const { return attempts_; }
  [[nodiscard]] std::uint64_t elapsed_ms() const { return elapsed_ms_; }
  [[nodiscard]] const std::string& last_error() const { return last_error_; }

 private:
  std::size_t attempts_;
  std::uint64_t elapsed_ms_;
  std::string last_error_;
};

class ResilientClient {
 public:
  explicit ResilientClient(RetryConfig config = {});

  ResilientClient(const ResilientClient&) = delete;
  ResilientClient& operator=(const ResilientClient&) = delete;

  /// Remember the endpoint and connect (with retries).
  void connect(const std::string& host, std::uint16_t port);

  /// Point future reconnects at a new endpoint — a restarted server
  /// typically binds a fresh ephemeral port.  Drops the current
  /// connection; the next request reconnects, resumes and resends.
  void set_endpoint(const std::string& host, std::uint16_t port);

  void disconnect() { client_.disconnect(); }

  /// Open a session (retried).  A retry after a lost reply can leave an
  /// orphaned extra session server-side; orphans idle harmlessly.
  [[nodiscard]] std::uint32_t open_session(
      const std::vector<std::string>& task_names, std::uint32_t bound = 16,
      SanitizePolicy policy = SanitizePolicy::Repair,
      std::uint32_t snapshot_interval = 1);

  /// Continue a session recovered by a restarted server (or owned by a
  /// previous client process): fetches the durable high-water mark and
  /// numbers the next period high_water + 1.
  void attach_session(std::uint32_t session);

  /// Replication path: open (idempotently) session `session` on the peer
  /// under that explicit id, resume it, and number the next period after
  /// the peer's durable high-water mark — which is returned.  Re-invoking
  /// for a known session resets its state to the peer's truth (any locally
  /// buffered unacked periods are dropped; the replicator re-reads them
  /// from the WAL instead).
  std::uint64_t open_session_as(std::uint32_t session,
                                const std::vector<std::string>& task_names,
                                std::uint32_t bound = 16,
                                SanitizePolicy policy = SanitizePolicy::Repair,
                                std::uint32_t snapshot_interval = 1);

  /// Open a session routed by a consistent-hash key.  Transport failures
  /// retry as usual; a Redirected answer propagates untouched (it is an
  /// answer, not a failure).
  [[nodiscard]] std::uint32_t open_cluster_session(
      const std::string& key, const std::vector<std::string>& task_names,
      std::uint32_t bound = 16, SanitizePolicy policy = SanitizePolicy::Repair,
      std::uint32_t snapshot_interval = 1);

  /// Fetch the server's cluster map (retried).
  [[nodiscard]] ClusterMapResponseMsg fetch_cluster_map();

  /// Push a new cluster map into the peer (retried).  A FencedError
  /// never comes back from this path — map pushes carry no epoch stamp.
  [[nodiscard]] MapUpdateAckMsg push_map_update(
      const ClusterMapResponseMsg& map);

  /// Stamp future session-mutating requests with this cluster-map epoch
  /// (see ServeClient::set_write_epoch).  Survives reconnects — the stamp
  /// lives on the underlying client object, not the connection.
  void set_write_epoch(std::uint64_t epoch) { client_.set_write_epoch(epoch); }
  [[nodiscard]] std::uint64_t write_epoch() const {
    return client_.write_epoch();
  }

  /// Sequence, buffer and send one period.  Failures retry transparently;
  /// the period is resent after reconnects until acknowledged durable.
  void send_period(std::uint32_t session, std::vector<Event> events);

  /// Block until every period sent so far is durable on the server
  /// (drained + fsynced); returns the acknowledged high-water mark.
  std::uint64_t flush(std::uint32_t session);

  /// Fetch the served model (retried; drain=true also waits for the
  /// server-side backlog).
  [[nodiscard]] WireSnapshot query(std::uint32_t session, bool drain = true,
                                   const std::vector<Event>* probe = nullptr);

  /// Pull the server's span ring (retried; see ServeClient).  A retried
  /// drain can lose the spans of the failed attempt — trace dumps are
  /// diagnostics, not durable data.
  [[nodiscard]] TraceDumpResponseMsg fetch_trace_dump(bool drain = true,
                                                      bool flight = false);

  /// Periods buffered but not yet acknowledged durable.
  [[nodiscard]] std::size_t unacked(std::uint32_t session) const;
  [[nodiscard]] const RetryConfig& config() const { return config_; }

  /// Causal tracing: when on, every send_period/query mints a trace id,
  /// records a client root span (flow Out) into the process span ring, and
  /// carries the context to the server as a TraceContext envelope so server stages
  /// join the same trace.  Enables the span ring as a side effect.
  void set_tracing(bool on);
  [[nodiscard]] bool tracing() const { return tracing_; }

 private:
  struct PendingPeriod {
    std::uint64_t seq{0};
    std::vector<Event> events;
    /// Trace context minted at first send; resends reuse it, so every
    /// delivery attempt of one period lands in one causal chain.
    obs::TraceContext ctx{};
  };
  struct SessionState {
    std::uint64_t next_seq{1};
    std::deque<PendingPeriod> unacked;
    std::size_t since_ack{0};
    /// The open recipe, kept so a reconnect that lands on a server which
    /// never heard of the session (a follower the primary died before
    /// mirroring to) can re-create it under the same id and resend.  Only
    /// sessions this client opened itself are re-creatable; attach_session
    /// leaves can_reopen false.
    bool can_reopen{false};
    std::vector<std::string> task_names;
    std::uint32_t bound{16};
    SanitizePolicy policy{SanitizePolicy::Repair};
    std::uint32_t snapshot_interval{1};
  };

  template <typename Fn>
  auto with_retry(Fn&& fn) -> decltype(fn());
  /// Start the retry-budget window for one logical operation.  Public
  /// entry points call this once up front; nested with_retry rounds then
  /// share the window, so a multi-round flush cannot exceed the budget.
  void begin_op();
  [[nodiscard]] std::uint64_t now_ms() const;
  void ensure_connected();
  void backoff(std::size_t attempt);
  void resend_unacked(std::uint32_t session, SessionState& state);
  static void trim_acked(SessionState& state, std::uint64_t high_water);

  /// Mint a context + start time for one traced request ({} when tracing
  /// is off), and record its root span once the request lands.
  [[nodiscard]] obs::TraceContext begin_trace() const;
  void end_trace(const char* name, const obs::TraceContext& ctx,
                 std::uint64_t start_ns) const;

  RetryConfig config_;
  ServeClient client_;
  Rng rng_;
  std::string host_;
  std::uint16_t port_{0};
  std::unordered_map<std::uint32_t, SessionState> sessions_;
  bool tracing_{false};
  /// Monotonic start of the current logical operation (begin_op); 0 when
  /// no budget is configured.
  std::uint64_t op_start_ms_{0};
  /// Attempts that failed since begin_op, across nested retry rounds.
  std::size_t op_failures_{0};
};

}  // namespace bbmg
