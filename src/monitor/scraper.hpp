// The scrape side of the telemetry plane: a configured set of targets —
// remote bbmg_served daemons (standalone, or every primary and follower of
// a ClusterMap) plus in-process registries (the fleet driver's client-side
// metrics) — each pulled on a fixed cadence over the ordinary wire
// protocol (MetricsRequest -> MetricsResponse) and flattened into the
// TsStore.
//
// Flattening: counters and gauges become one series each under their wire
// name; a histogram becomes `<name>_count`, `<name>_sum`, and one
// *cumulative* bucket series per bound (`<name>_bucket_le_<bound>`,
// `..._le_inf`), i.e. Prometheus `le` semantics, so the SLO engine's
// "observations <= threshold" is a single series read.
//
// Failure handling is freshness-based, never fatal: a failed scrape counts
// against the target and degrades its state by the age of the last good
// sample (Ok -> Stale -> Down); a SIGKILLed shard shows up as a stale
// endpoint in the health report while its follower keeps reporting — the
// failover test pins exactly this.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster_map.hpp"
#include "monitor/ts_store.hpp"
#include "obs/metrics.hpp"

namespace bbmg::monitor {

enum class EndpointState : std::uint8_t {
  Never = 0,  // no scrape has succeeded yet
  Ok = 1,
  Stale = 2,
  Down = 3,
};

[[nodiscard]] const char* endpoint_state_name(EndpointState state);

struct ScraperConfig {
  /// Per-scrape connect + request deadline.
  std::uint32_t request_timeout_ms{1000};
  /// Age of the last good sample after which a target is Stale / Down.
  std::uint64_t stale_after_ms{3000};
  std::uint64_t down_after_ms{10000};
};

/// One target's public status (copied out under the scraper's lock).
struct EndpointStatus {
  std::string name;
  std::string endpoint;  // "host:port", "" for in-process registries
  EndpointState state{EndpointState::Never};
  std::uint64_t last_ok_ms{0};  // 0 until the first success
  std::uint64_t scrapes{0};
  std::uint64_t failures{0};
};

/// Series-name helpers shared with the SLO/aggregation layers.
[[nodiscard]] std::string count_series(const std::string& histogram);
[[nodiscard]] std::string bucket_series(const std::string& histogram,
                                        std::uint64_t upper_bound);
[[nodiscard]] std::string inf_bucket_series(const std::string& histogram);

class Scraper {
 public:
  Scraper(TsStore& store, ScraperConfig config)
      : store_(store), config_(config) {}

  /// Names must be unique; they key the store and the health report.
  void add_endpoint(const std::string& name, cluster::Endpoint endpoint);
  /// "shard<i>" / "shard<i>-follower" for every endpoint in the map.
  void add_cluster_map(const cluster::ClusterMap& map);
  /// Scrape an in-process registry (non-owning; must outlive the scraper).
  void add_local(const std::string& name,
                 const obs::MetricsRegistry* registry);

  /// One pass over every target, stamping samples with `now_ms`; returns
  /// the number of successful scrapes.  Never throws on a dead target.
  std::size_t scrape_once(std::uint64_t now_ms);

  [[nodiscard]] std::vector<EndpointStatus> statuses(
      std::uint64_t now_ms) const;
  [[nodiscard]] std::size_t num_targets() const { return targets_.size(); }

 private:
  struct Target {
    std::string name;
    cluster::Endpoint endpoint;  // valid() iff remote
    const obs::MetricsRegistry* local{nullptr};
    EndpointState state{EndpointState::Never};
    std::uint64_t last_ok_ms{0};
    std::uint64_t first_attempt_ms{0};
    std::uint64_t scrapes{0};
    std::uint64_t failures{0};
  };

  void ingest(const std::string& name, const obs::MetricsSnapshot& snapshot,
              std::uint64_t now_ms);
  [[nodiscard]] EndpointState degraded_state(const Target& target,
                                             std::uint64_t now_ms) const;

  TsStore& store_;
  ScraperConfig config_;
  std::vector<Target> targets_;
};

}  // namespace bbmg::monitor
