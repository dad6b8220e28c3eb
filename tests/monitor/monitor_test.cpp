// The monitor end to end, in process: scraping a local registry and a
// real wire server into the store, the health listener answering
// bbmg_client's fetch_health, fleet rollups, the chaos proxy that
// manufactures latency incidents, and the report renderers.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "monitor/aggregate.hpp"
#include "monitor/monitor.hpp"
#include "monitor/scraper.hpp"
#include "obs/metrics.hpp"
#include "serve/chaos_proxy.hpp"
#include "serve/client.hpp"
#include "serve/net.hpp"
#include "serve/server.hpp"

namespace bbmg::monitor {
namespace {

SloObjective test_objective() {
  SloObjective o;
  o.name = "test-latency";
  o.kind = SloKind::LatencyP;
  o.metric = "bbmg_testmon_latency_us";
  o.threshold_us = 1000;
  o.target = 0.99;
  return o;
}

TEST(Monitor, TicksScrapeLocalRegistryIntoStore) {
  obs::MetricsRegistry registry;
  obs::Counter& reqs = registry.counter("bbmg_testmon_reqs_total");
  obs::Histogram& lat =
      registry.histogram("bbmg_testmon_latency_us", {1000, 10000});

  MonitorConfig config;
  config.listen = false;
  config.objectives = {test_objective()};
  Monitor mon(config);
  mon.add_local("driver", &registry);

  reqs.inc(5);
  lat.observe(10);
  mon.tick(1000);
  reqs.inc(5);
  lat.observe(20000);
  mon.tick(2000);

  if (obs::kEnabled) {
    const std::vector<TsSample> samples =
        mon.store().samples_since("driver", "bbmg_testmon_reqs_total", 0);
    ASSERT_EQ(samples.size(), 2u);
    EXPECT_EQ(samples[0].value, 5);
    EXPECT_EQ(samples[1].value, 10);
    // Histograms land flattened: count, sum, and cumulative buckets.
    ASSERT_TRUE(
        mon.store()
            .latest("driver", count_series("bbmg_testmon_latency_us"))
            .has_value());
    EXPECT_EQ(mon.store()
                  .latest("driver", count_series("bbmg_testmon_latency_us"))
                  ->value,
              2);
    EXPECT_EQ(
        mon.store()
            .latest("driver", bucket_series("bbmg_testmon_latency_us", 1000))
            ->value,
        1);
    EXPECT_EQ(mon.store()
                  .latest("driver",
                          inf_bucket_series("bbmg_testmon_latency_us"))
                  ->value,
              2);
  }

  const HealthReport report = mon.report();
  EXPECT_EQ(report.evaluated_at_ms, 2000u);
  ASSERT_EQ(report.objectives.size(), 1u);
  EXPECT_EQ(report.objectives[0].name, "test-latency");
  ASSERT_EQ(report.endpoints.size(), 1u);
  EXPECT_EQ(report.endpoints[0].name, "driver");
  EXPECT_EQ(report.endpoints[0].state, EndpointState::Ok);
  EXPECT_EQ(report.endpoints[0].endpoint, "");
  EXPECT_EQ(mon.ticks(), 2u);
}

TEST(Monitor, ScrapesARealServerOverTheWire) {
  Server server;
  server.start();

  MonitorConfig config;
  config.listen = false;
  Monitor mon(config);
  mon.add_endpoint("srv",
                   cluster::Endpoint{"127.0.0.1", server.port()});

  mon.tick(Monitor::wall_ms());

  const HealthReport report = mon.report();
  ASSERT_EQ(report.endpoints.size(), 1u);
  EXPECT_EQ(report.endpoints[0].state, EndpointState::Ok);
  EXPECT_EQ(report.endpoints[0].endpoint,
            "127.0.0.1:" + std::to_string(server.port()));
  if (obs::kEnabled) {
    // The server's registry reached the store under the target's name.
    EXPECT_TRUE(mon.store()
                    .latest("srv", "bbmg_serve_connections_total")
                    .has_value());
  }
  server.stop();
}

TEST(Monitor, ServesHealthAndItsOwnMetricsOverTheWire) {
  obs::MetricsRegistry registry;
  (void)registry.counter("bbmg_testmon_reqs_total");

  MonitorConfig config;
  config.listen = true;
  config.interval_ms = 20;
  Monitor mon(config);  // empty objectives -> the stock three
  mon.add_local("fleet", &registry);
  mon.start();
  ASSERT_GT(mon.port(), 0);
  for (int i = 0; i < 500 && mon.ticks() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GT(mon.ticks(), 0u);

  ServeClient client;
  client.connect("127.0.0.1", mon.port());
  const HealthReport report = Monitor::from_wire(client.fetch_health());
  EXPECT_EQ(report.overall, AlertState::Ok);  // no traffic burns nothing
  ASSERT_EQ(report.objectives.size(), 4u);
  EXPECT_EQ(report.objectives[0].name, "ingest-latency");
  ASSERT_EQ(report.endpoints.size(), 1u);
  EXPECT_EQ(report.endpoints[0].name, "fleet");

  if (obs::kEnabled) {
    // The watcher is watchable: MetricsRequest returns the monitor's own
    // registry, including its scrape counters.
    const obs::MetricsSnapshot snap = client.fetch_metrics();
    bool found = false;
    for (const auto& c : snap.counters) {
      if (c.name == "bbmg_monitor_scrapes_total") found = c.value > 0;
    }
    EXPECT_TRUE(found);
  }
  client.disconnect();
  mon.stop();
}

// First reply to `bytes` sent on a fresh connection, and whether the
// monitor then closed the connection.
std::pair<std::optional<Frame>, bool> raw_exchange(
    std::uint16_t port, const std::vector<std::uint8_t>& bytes) {
  const int fd = net::connect_tcp("127.0.0.1", port);
  net::set_socket_timeout(fd, 2000);
  FrameDecoder decoder;
  std::optional<Frame> reply;
  bool closed = false;
  try {
    net::write_all(fd, bytes.data(), bytes.size());
    reply = net::read_frame(fd, decoder);
    closed = reply.has_value() && !net::read_frame(fd, decoder);
  } catch (const Error&) {
  }
  net::close_socket(fd);
  return {reply, closed};
}

TEST(Monitor, RejectsOtherVersionsAndFramesBeforeHello) {
  MonitorConfig config;
  config.listen = true;
  config.interval_ms = 20;
  Monitor mon(config);
  mon.start();
  ASSERT_GT(mon.port(), 0);

  std::vector<std::vector<std::uint8_t>> attempts;
  for (const std::uint16_t version : {0, 2, 6, 8, 0xffff}) {
    HelloMsg hello;
    hello.version = version;
    append_frame(attempts.emplace_back(), hello.to_frame(FrameType::Hello));
  }
  append_frame(attempts.emplace_back(), HealthRequestMsg{}.to_frame());
  for (std::size_t i = 0; i < attempts.size(); ++i) {
    const auto [reply, closed] = raw_exchange(mon.port(), attempts[i]);
    ASSERT_TRUE(reply.has_value()) << "attempt " << i;
    ASSERT_EQ(reply->type, FrameType::ErrorReply) << "attempt " << i;
    EXPECT_EQ(ErrorReplyMsg::decode(*reply).code, WireErrorCode::BadFrame)
        << "attempt " << i;
    EXPECT_TRUE(closed) << "attempt " << i;
  }
  mon.stop();
}

TEST(Monitor, RendersTextAndJson) {
  HealthReport report;
  report.overall = AlertState::Page;
  report.evaluated_at_ms = 10'000;
  ObjectiveStatus o;
  o.name = "client-rtt";
  o.state = AlertState::Page;
  o.fast_burn = 12.5;
  o.slow_burn = 9.0;
  o.detail = "fast 12.50x / slow 9.00x of budget (bad 55/100)";
  report.objectives.push_back(o);
  EndpointStatus e;
  e.name = "shard0";
  e.endpoint = "127.0.0.1:7301";
  e.state = EndpointState::Stale;
  e.last_ok_ms = 6'000;
  report.endpoints.push_back(e);

  const std::string text = Monitor::render_text(report, 12'000);
  EXPECT_NE(text.find("overall: page"), std::string::npos) << text;
  EXPECT_NE(text.find("client-rtt"), std::string::npos);
  EXPECT_NE(text.find("shard0"), std::string::npos);
  EXPECT_NE(text.find("stale"), std::string::npos);

  const std::string json = Monitor::render_json(report);
  EXPECT_NE(json.find("\"overall\":\"page\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"client-rtt\""), std::string::npos);
  EXPECT_NE(json.find("\"fast_burn\":12.5"), std::string::npos) << json;
}

TEST(Aggregate, RollupsAcrossEndpoints) {
  TsStore store;
  store.append("shard0", "bbmg_serve_periods_applied_total", 0, 0);
  store.append("shard0", "bbmg_serve_periods_applied_total", 10'000, 100);
  store.append("shard1", "bbmg_serve_periods_applied_total", 0, 0);
  store.append("shard1", "bbmg_serve_periods_applied_total", 10'000, 300);

  // Replication lag pairs "<name>" with "<name>-follower".
  store.append("shard0-follower", "bbmg_serve_periods_applied_total",
               10'000, 64);
  const std::vector<ReplicationLag> lags = replication_lags(store);
  ASSERT_EQ(lags.size(), 1u);
  EXPECT_EQ(lags[0].primary, "shard0");
  EXPECT_EQ(lags[0].follower, "shard0-follower");
  EXPECT_EQ(lags[0].lag_periods, 36u);
}

TEST(ChaosProxy, RelaysASessionVerbatimWithoutChaos) {
  Server server;
  server.start();
  ChaosProxy proxy("127.0.0.1", server.port(), net::ChaosConfig{});

  ServeClient client;
  client.connect("127.0.0.1", proxy.port());
  const std::uint32_t session = client.open_session({"a", "b"});
  client.close_session(session);
  client.disconnect();

  EXPECT_GE(proxy.connections(), 1u);
  proxy.stop();
  server.stop();
}

TEST(ChaosProxy, InjectedDelayInflatesObservedRtt) {
  Server server;
  server.start();
  net::ChaosConfig chaos;
  chaos.seed = 7;
  chaos.delay_prob = 1.0;
  chaos.max_delay_us = 20'000;
  ChaosProxy proxy("127.0.0.1", server.port(), chaos);

  ServeClient client;
  client.connect("127.0.0.1", proxy.port());
  const auto start = std::chrono::steady_clock::now();
  const std::uint32_t session = client.open_session({"a"});
  client.close_session(session);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  client.disconnect();
  proxy.stop();
  server.stop();
  // Two request/replies, each delayed on the reply path.
  EXPECT_GE(std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
                .count(),
            1000);
}

}  // namespace
}  // namespace bbmg::monitor
