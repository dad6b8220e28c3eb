#include "monitor/scraper.hpp"

#include <exception>

#include "common/error.hpp"
#include "monitor/monitor_metrics.hpp"
#include "serve/client.hpp"

namespace bbmg::monitor {

const char* endpoint_state_name(EndpointState state) {
  switch (state) {
    case EndpointState::Never:
      return "never";
    case EndpointState::Ok:
      return "ok";
    case EndpointState::Stale:
      return "stale";
    case EndpointState::Down:
      return "down";
  }
  return "?";
}

std::string count_series(const std::string& histogram) {
  return histogram + "_count";
}

std::string bucket_series(const std::string& histogram,
                          std::uint64_t upper_bound) {
  return histogram + "_bucket_le_" + std::to_string(upper_bound);
}

std::string inf_bucket_series(const std::string& histogram) {
  return histogram + "_bucket_le_inf";
}

void Scraper::add_endpoint(const std::string& name,
                           cluster::Endpoint endpoint) {
  BBMG_REQUIRE(endpoint.valid(), "scraper: invalid endpoint for " + name);
  Target target;
  target.name = name;
  target.endpoint = std::move(endpoint);
  targets_.push_back(std::move(target));
}

void Scraper::add_cluster_map(const cluster::ClusterMap& map) {
  for (auto& [name, endpoint] : map.all_endpoints()) {
    add_endpoint(name, endpoint);
  }
}

void Scraper::add_local(const std::string& name,
                        const obs::MetricsRegistry* registry) {
  BBMG_REQUIRE(registry != nullptr, "scraper: null registry for " + name);
  Target target;
  target.name = name;
  target.local = registry;
  targets_.push_back(std::move(target));
}

void Scraper::ingest(const std::string& name,
                     const obs::MetricsSnapshot& snapshot,
                     std::uint64_t now_ms) {
  MonitorMetrics& metrics = MonitorMetrics::get();
  std::uint64_t appended = 0;
  for (const obs::CounterSample& c : snapshot.counters) {
    store_.append(name, c.name, now_ms, static_cast<std::int64_t>(c.value));
    ++appended;
  }
  for (const obs::GaugeSample& g : snapshot.gauges) {
    store_.append(name, g.name, now_ms, g.value);
    ++appended;
  }
  for (const obs::HistogramSample& h : snapshot.histograms) {
    store_.append(name, count_series(h.name), now_ms,
                  static_cast<std::int64_t>(h.count));
    store_.append(name, h.name + "_sum", now_ms,
                  static_cast<std::int64_t>(h.sum));
    appended += 2;
    // Per-bucket counts arrive flat; store them cumulative (`le`
    // semantics) so "observations <= bound" is one series read.
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      cumulative += h.counts[i];
      const std::string series =
          i < h.upper_bounds.size() ? bucket_series(h.name, h.upper_bounds[i])
                                    : inf_bucket_series(h.name);
      store_.append(name, series, now_ms,
                    static_cast<std::int64_t>(cumulative));
      ++appended;
    }
  }
  metrics.samples_appended.inc(appended);
}

std::size_t Scraper::scrape_once(std::uint64_t now_ms) {
  MonitorMetrics& metrics = MonitorMetrics::get();
  std::size_t ok = 0;
  for (Target& target : targets_) {
    if (target.first_attempt_ms == 0) target.first_attempt_ms = now_ms;
    ++target.scrapes;
    metrics.scrapes.inc();
    try {
      if (target.local != nullptr) {
        ingest(target.name, target.local->snapshot(), now_ms);
      } else {
        // A fresh connection per scrape: at a 1 s cadence the handshake is
        // noise, and it keeps the scraper stateless across target restarts.
        ServeClient client;
        client.set_request_timeout_ms(config_.request_timeout_ms);
        client.connect(target.endpoint.host, target.endpoint.port);
        ingest(target.name, client.fetch_metrics(), now_ms);
      }
      target.last_ok_ms = now_ms;
      target.state = EndpointState::Ok;
      ++ok;
    } catch (const std::exception&) {
      ++target.failures;
      metrics.scrape_failures.inc();
      target.state = degraded_state(target, now_ms);
    }
  }
  return ok;
}

EndpointState Scraper::degraded_state(const Target& target,
                                      std::uint64_t now_ms) const {
  // Freshness is measured from the last good sample, or from the first
  // attempt for a target that never answered (a never-up shard must still
  // reach Down instead of lingering as Never forever).
  const std::uint64_t reference =
      target.last_ok_ms != 0 ? target.last_ok_ms : target.first_attempt_ms;
  const std::uint64_t age = now_ms >= reference ? now_ms - reference : 0;
  if (age > config_.down_after_ms) return EndpointState::Down;
  if (age > config_.stale_after_ms) {
    return target.last_ok_ms != 0 ? EndpointState::Stale : EndpointState::Down;
  }
  // Inside the freshness window one failed scrape is not an incident yet:
  // the last good sample still stands.
  return target.last_ok_ms != 0 ? EndpointState::Ok : EndpointState::Never;
}

std::vector<EndpointStatus> Scraper::statuses(std::uint64_t now_ms) const {
  std::vector<EndpointStatus> out;
  out.reserve(targets_.size());
  for (const Target& target : targets_) {
    EndpointStatus status;
    status.name = target.name;
    if (target.endpoint.valid()) status.endpoint = target.endpoint.str();
    status.state = target.state;
    status.last_ok_ms = target.last_ok_ms;
    status.scrapes = target.scrapes;
    status.failures = target.failures;
    (void)now_ms;
    out.push_back(std::move(status));
  }
  return out;
}

}  // namespace bbmg::monitor
