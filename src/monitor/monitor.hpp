// The monitor daemon's core: one object owning the time-series store, the
// scraper, and the SLO engine, driven either by an internal scrape thread
// (start()/stop(), the bbmg_monitor CLI) or by explicit tick() calls
// (tests and bench_monitor, which want deterministic clocks).
//
// The monitor is itself a wire peer: an optional listener answers Hello,
// HealthRequest (the latest evaluated verdict), MetricsRequest (the
// monitor's own registry — the watcher is watchable), and politely errors
// everything else.  bbmg_client health / fleet tooling
// talk to this port exactly like they talk to a serving daemon.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "monitor/scraper.hpp"
#include "monitor/slo.hpp"
#include "monitor/ts_store.hpp"
#include "serve/net.hpp"
#include "serve/protocol.hpp"

namespace bbmg::monitor {

struct MonitorConfig {
  /// Scrape + evaluate cadence of the internal thread.
  std::uint64_t interval_ms{1000};
  /// Listener port for health/metrics queries (0 picks an ephemeral port;
  /// set listen=false for no listener at all).
  bool listen{true};
  std::uint16_t port{0};
  ScraperConfig scrape;
  /// Empty = default_objectives().
  std::vector<SloObjective> objectives;
};

/// One evaluated verdict: the worst objective state, every objective's
/// burn pair, every endpoint's freshness.
struct HealthReport {
  AlertState overall{AlertState::Ok};
  std::uint64_t evaluated_at_ms{0};
  std::vector<ObjectiveStatus> objectives;
  std::vector<EndpointStatus> endpoints;
};

class Monitor {
 public:
  explicit Monitor(MonitorConfig config);
  ~Monitor();

  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  // Target configuration — call before start()/first tick().
  void add_endpoint(const std::string& name, cluster::Endpoint endpoint) {
    scraper_.add_endpoint(name, std::move(endpoint));
  }
  void add_cluster_map(const cluster::ClusterMap& map) {
    scraper_.add_cluster_map(map);
  }
  void add_local(const std::string& name,
                 const obs::MetricsRegistry* registry) {
    scraper_.add_local(name, registry);
  }

  /// One synchronous scrape + evaluate pass stamped `now_ms`; updates the
  /// report the listener serves.  The tick the scrape thread runs.
  void tick(std::uint64_t now_ms);

  /// Install a verdict consumer: called at the end of every tick, on the
  /// ticking thread, with a copy of the fresh report (no lock held).  The
  /// controller's detect half — it turns these reports into failovers.
  /// Call before start(); pass nullptr to clear.
  void set_report_sink(
      std::function<void(const HealthReport&, std::uint64_t now_ms)> sink) {
    sink_ = std::move(sink);
  }

  /// Launch the scrape thread (wall-clock ticks) and, when configured,
  /// the wire listener.  stop() joins both; the destructor calls stop().
  void start();
  void stop();

  [[nodiscard]] HealthReport report() const;
  [[nodiscard]] std::uint16_t port() const { return listener_.port; }
  [[nodiscard]] TsStore& store() { return store_; }
  [[nodiscard]] const TsStore& store() const { return store_; }
  [[nodiscard]] std::uint64_t ticks() const {
    return ticks_.load(std::memory_order_relaxed);
  }

  /// Monotonic-ish wall clock in ms (CLOCK_REALTIME; sample timestamps and
  /// report ages share it).
  [[nodiscard]] static std::uint64_t wall_ms();

  [[nodiscard]] static HealthResponseMsg to_wire(const HealthReport& report);
  [[nodiscard]] static HealthReport from_wire(const HealthResponseMsg& msg);
  /// Terminal rendering of a report (the --dash view / `bbmg_client
  /// health` output); `now_ms` turns last_ok stamps into ages.
  [[nodiscard]] static std::string render_text(const HealthReport& report,
                                               std::uint64_t now_ms);
  [[nodiscard]] static std::string render_json(const HealthReport& report);

 private:
  void scrape_loop();
  void listen_loop();
  void serve_connection(int fd);

  MonitorConfig config_;
  TsStore store_;
  Scraper scraper_;
  SloEngine engine_;
  /// Verdict consumer (set_report_sink); called outside report_mu_.
  std::function<void(const HealthReport&, std::uint64_t)> sink_;

  mutable std::mutex report_mu_;
  HealthReport report_;  // guarded by report_mu_

  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> ticks_{0};
  net::Listener listener_{};
  std::thread scrape_thread_;
  std::thread listen_thread_;
  std::mutex conn_mu_;
  std::vector<std::thread> conn_threads_;  // guarded by conn_mu_
};

}  // namespace bbmg::monitor
