// Fleet-level rollup over the time-series store: replication lag, how far
// each follower's applied-period count trails its primary's.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "monitor/ts_store.hpp"

namespace bbmg::monitor {

/// One follower's ingest position relative to its primary.
struct ReplicationLag {
  std::string primary;   // endpoint name, e.g. "shard0"
  std::string follower;  // e.g. "shard0-follower"
  /// periods_applied(primary) - periods_applied(follower), clamped at 0.
  std::uint64_t lag_periods{0};
};

/// Lag per (primary, follower) pair, matched by the scraper's
/// "<name>"/"<name>-follower" naming convention.
[[nodiscard]] std::vector<ReplicationLag> replication_lags(
    const TsStore& store);

}  // namespace bbmg::monitor
