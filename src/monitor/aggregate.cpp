#include "monitor/aggregate.hpp"

namespace bbmg::monitor {

namespace {

constexpr const char* kPeriodsApplied = "bbmg_serve_periods_applied_total";
constexpr const char* kFollowerSuffix = "-follower";

}  // namespace

std::vector<ReplicationLag> replication_lags(const TsStore& store) {
  std::vector<ReplicationLag> out;
  for (const std::string& endpoint : store.endpoints_with(kPeriodsApplied)) {
    const std::string& follower = endpoint;
    const std::size_t suffix_len = std::string(kFollowerSuffix).size();
    if (follower.size() <= suffix_len ||
        follower.compare(follower.size() - suffix_len, suffix_len,
                         kFollowerSuffix) != 0) {
      continue;
    }
    const std::string primary =
        follower.substr(0, follower.size() - suffix_len);
    const auto primary_sample = store.latest(primary, kPeriodsApplied);
    const auto follower_sample = store.latest(follower, kPeriodsApplied);
    if (!primary_sample || !follower_sample) continue;
    ReplicationLag lag;
    lag.primary = primary;
    lag.follower = follower;
    lag.lag_periods =
        primary_sample->value > follower_sample->value
            ? static_cast<std::uint64_t>(primary_sample->value -
                                         follower_sample->value)
            : 0;
    out.push_back(std::move(lag));
  }
  return out;
}

}  // namespace bbmg::monitor
