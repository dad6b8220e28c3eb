// TCP front-end: end-to-end replay/query over a real socket, protocol
// errors from hostile peers, and multi-connection isolation.
#include <gtest/gtest.h>

#include <optional>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "core/heuristic_learner.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/net.hpp"
#include "serve/server.hpp"
#include "support/gm_trace.hpp"
#include "support/metrics.hpp"

namespace bbmg {
namespace {

TEST(ServerEndToEnd, ReplayedTraceServesTheOfflineModel) {
  ServerConfig config;
  config.manager.workers = 2;
  Server server(config);
  server.start();
  ASSERT_GT(server.port(), 0);

  const Trace trace = gm_trace(7, 9);
  ServeClient client;
  client.connect("127.0.0.1", server.port());
  const std::uint32_t session = client.open_session(trace.task_names());
  EXPECT_EQ(client.send_trace(session, trace), trace.num_periods());

  const WireSnapshot snap = client.query(session, /*drain=*/true);
  EXPECT_EQ(snap.periods_seen, trace.num_periods());
  EXPECT_EQ(snap.periods_learned, trace.num_periods());
  EXPECT_EQ(snap.health, HealthState::OK);

  // The wire answer equals the offline batch pipeline on the same trace.
  const DependencyMatrix offline = learn_heuristic(trace, 16).lub();
  EXPECT_TRUE(snap.lub == offline);
  EXPECT_EQ(snap.weight, offline.weight());

  client.close_session(session);
  server.stop();
}

TEST(ServerEndToEnd, ProbeQueriesReturnVerdicts) {
  Server server;
  server.start();
  const Trace trace = gm_trace(5, 9);
  ServeClient client;
  client.connect("127.0.0.1", server.port());
  const std::uint32_t session = client.open_session(trace.task_names());
  client.send_trace(session, trace);

  const std::vector<Event> seen = trace.periods()[0].to_events();
  EXPECT_EQ(client.query(session, true, &seen).verdict, ProbeVerdict::Conforms);

  const std::vector<Event> lone{Event::task_start(0, TaskId{0u}),
                                Event::task_end(1000, TaskId{0u})};
  const WireSnapshot bad = client.query(session, true, &lone);
  EXPECT_EQ(bad.verdict, ProbeVerdict::Violates);
  EXPECT_GT(bad.num_violations, 0u);
  server.stop();
}

TEST(ServerEndToEnd, ConcurrentConnectionsLearnIndependentModels) {
  ServerConfig config;
  config.manager.workers = 3;
  Server server(config);
  server.start();

  const std::size_t kClients = 4;
  std::vector<DependencyMatrix> served(kClients);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i, port = server.port()] {
      const Trace trace = gm_trace(20 + i, 6);
      ServeClient client;
      client.connect("127.0.0.1", port);
      const std::uint32_t session = client.open_session(trace.task_names());
      client.send_trace(session, trace);
      served[i] = client.query(session, /*drain=*/true).lub;
    });
  }
  for (auto& t : threads) t.join();

  for (std::size_t i = 0; i < kClients; ++i) {
    const DependencyMatrix offline =
        learn_heuristic(gm_trace(20 + i, 6), 16).lub();
    EXPECT_TRUE(served[i] == offline) << "client " << i;
  }
  server.stop();
}

TEST(ServerRobustness, GarbageConnectionDoesNotKillTheServer) {
  Server server;
  server.start();

  // A peer speaking something that is not the protocol: the server must
  // reject the connection and keep serving others.
  {
    const int fd = net::connect_tcp("127.0.0.1", server.port());
    const char junk[] = "GET / HTTP/1.1\r\n\r\n";
    net::write_all(fd, reinterpret_cast<const std::uint8_t*>(junk),
                   sizeof(junk) - 1);
    // Whatever comes back (an ErrorReply or a shutdown), the connection
    // must end; draining until EOF must not hang.
    FrameDecoder decoder;
    try {
      while (net::read_frame(fd, decoder).has_value()) {
      }
    } catch (const Error&) {
    }
    net::close_socket(fd);
  }

  // A frame-level valid but semantically wrong conversation: a query for a
  // session that was never opened surfaces as a client-side error, again
  // without hurting the server.
  {
    ServeClient client;
    client.connect("127.0.0.1", server.port());
    EXPECT_THROW((void)client.query(12345, /*drain=*/true), Error);
  }

  // The server still works end to end.
  const Trace trace = gm_trace(9, 4);
  ServeClient client;
  client.connect("127.0.0.1", server.port());
  const std::uint32_t session = client.open_session(trace.task_names());
  client.send_trace(session, trace);
  EXPECT_EQ(client.query(session, true).periods_seen, trace.num_periods());
  server.stop();
}

TEST(ServerRobustness, StopUnblocksLiveConnections) {
  auto server = std::make_unique<Server>();
  server->start();
  ServeClient client;
  client.connect("127.0.0.1", server->port());
  const std::uint32_t session = client.open_session({"a", "b"});
  (void)session;
  server->stop();  // must not deadlock on the open connection
  server.reset();
}

// The acceptance path of the observability layer: replay a trace, fetch
// the process-wide metrics snapshot over the wire, and see the learner,
// serve and queue instrumentation reflect the replay.  The registry is
// process-global and monotone, so assertions are >= (other tests in this
// binary also feed it); exact-nonzero checks are gated on obs::kEnabled.
TEST(ServerEndToEnd, MetricsRoundTripOverTheWire) {
  ServerConfig config;
  config.manager.workers = 2;
  Server server(config);
  server.start();

  const Trace trace = gm_trace(11, 8);
  ServeClient client;
  client.connect("127.0.0.1", server.port());
  const std::uint32_t session = client.open_session(trace.task_names());
  client.send_trace(session, trace);
  (void)client.query(session, /*drain=*/true);

  const obs::MetricsSnapshot snap = client.fetch_metrics();
  ASSERT_FALSE(snap.counters.empty());
  if (obs::kEnabled) {
    EXPECT_GE(snap.counter_value("bbmg_learner_periods_total"),
              trace.num_periods());
    EXPECT_GE(snap.counter_value("bbmg_robust_periods_total"),
              trace.num_periods());
    EXPECT_GE(snap.counter_value("bbmg_serve_periods_applied_total"),
              trace.num_periods());
    EXPECT_GE(snap.counter_value("bbmg_serve_sessions_opened_total"), 1u);
    EXPECT_GE(snap.counter_value("bbmg_serve_queries_total"), 1u);
    EXPECT_GE(snap.counter_value("bbmg_serve_connections_total"), 1u);
    const obs::HistogramSample* lat =
        find_histogram(snap, "bbmg_serve_enqueue_apply_latency_us");
    ASSERT_NE(lat, nullptr);
    EXPECT_GE(lat->count, trace.num_periods());
    // A drained session's shard queues are empty again.
    for (const obs::GaugeSample& g : snap.gauges) {
      if (g.name.rfind("bbmg_serve_queue_depth", 0) == 0) {
        EXPECT_GE(g.value, 0) << g.name;
      }
    }
  } else {
    // OFF build: the wire surface works identically, all values read zero.
    EXPECT_EQ(snap.counter_value("bbmg_learner_periods_total"), 0u);
    EXPECT_EQ(snap.counter_value("bbmg_serve_periods_applied_total"), 0u);
  }

  client.close_session(session);
  server.stop();
}

// One raw exchange with a daemon: send `bytes` on a fresh connection and
// return the first reply plus whether the daemon then closed the
// connection.  A daemon that never answers yields no reply (2 s deadline)
// instead of hanging the test.
struct RawExchange {
  std::optional<Frame> reply;
  bool closed{false};
};

RawExchange raw_exchange(std::uint16_t port,
                         const std::vector<std::uint8_t>& bytes) {
  RawExchange out;
  const int fd = net::connect_tcp("127.0.0.1", port);
  net::set_socket_timeout(fd, 2000);
  FrameDecoder decoder;
  try {
    net::write_all(fd, bytes.data(), bytes.size());
    out.reply = net::read_frame(fd, decoder);
    out.closed = out.reply.has_value() && !net::read_frame(fd, decoder);
  } catch (const Error&) {
  }
  net::close_socket(fd);
  return out;
}

bool is_bad_frame(const RawExchange& ex) {
  return ex.reply.has_value() && ex.reply->type == FrameType::ErrorReply &&
         ErrorReplyMsg::decode(*ex.reply).code == WireErrorCode::BadFrame;
}

TEST(ServerProtocol, HelloWithAnyOtherVersionIsRejected) {
  Server server;
  server.start();
  for (const std::uint16_t version : {0, 2, 6, 8, 0xffff}) {
    HelloMsg hello;
    hello.version = version;
    std::vector<std::uint8_t> bytes;
    append_frame(bytes, hello.to_frame(FrameType::Hello));
    const RawExchange ex = raw_exchange(server.port(), bytes);
    EXPECT_TRUE(is_bad_frame(ex)) << "version " << version;
    EXPECT_TRUE(ex.closed) << "version " << version;
  }
  server.stop();
}

TEST(ServerProtocol, FramesBeforeHelloAreRejected) {
  Server server;
  server.start();
  const Trace trace = gm_trace(3, 2);
  ServeClient client;
  client.connect("127.0.0.1", server.port());
  const std::uint32_t session = client.open_session(trace.task_names());

  // A Query for a live session, without Hello first.
  std::vector<std::uint8_t> query;
  append_frame(query, QueryMsg{session, false, std::nullopt}.to_frame());
  const RawExchange q = raw_exchange(server.port(), query);
  EXPECT_TRUE(is_bad_frame(q));
  EXPECT_TRUE(q.closed);

  // A whole period streamed into the live session, without Hello first.
  std::vector<std::uint8_t> period;
  append_frame(period,
               EventsMsg{session, trace.periods()[0].to_events()}.to_frame());
  append_frame(period, EndPeriodMsg{session, 0, 0}.to_frame());
  const RawExchange p = raw_exchange(server.port(), period);
  EXPECT_TRUE(is_bad_frame(p));
  EXPECT_TRUE(p.closed);

  EXPECT_EQ(client.query(session, /*drain=*/true).periods_seen, 0u);
  server.stop();
}

}  // namespace
}  // namespace bbmg
