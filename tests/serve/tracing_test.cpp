// End-to-end causal tracing: the trace envelope on the wire, parent/child
// id integrity across concurrent traced sessions, and the merged Chrome
// export with matching flow ids.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/span.hpp"
#include "obs/trace_context.hpp"
#include "obs/trace_export.hpp"
#include "serve/resilient_client.hpp"
#include "serve/server.hpp"
#include "support/gm_trace.hpp"

namespace bbmg {
namespace {

Frame round_trip(const Frame& frame) {
  std::vector<std::uint8_t> bytes;
  append_frame(bytes, frame);
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  auto out = decoder.next();
  EXPECT_TRUE(out.has_value());
  return std::move(*out);
}

TEST(TraceWire, TraceContextEnvelopeRoundTrips) {
  TraceContextMsg msg;
  msg.trace_id = 0xdeadbeefcafef00dull;
  msg.span_id = 0x0123456789abcdefull;
  const TraceContextMsg back = TraceContextMsg::decode(round_trip(msg.to_frame()));
  EXPECT_EQ(back.trace_id, msg.trace_id);
  EXPECT_EQ(back.span_id, msg.span_id);
}

TEST(TraceWire, TraceDumpRequestRoundTrips) {
  TraceDumpRequestMsg msg;
  msg.drain = false;
  msg.flight = true;
  const TraceDumpRequestMsg back =
      TraceDumpRequestMsg::decode(round_trip(msg.to_frame()));
  EXPECT_FALSE(back.drain);
  EXPECT_TRUE(back.flight);
}

TEST(TraceWire, TraceDumpResponseRoundTripsSpansAndFlight) {
  TraceDumpResponseMsg msg;
  msg.server_now_ns = 123456789;
  msg.drops = 7;
  WireSpan s;
  s.name = "server.apply";
  s.tid = 3;
  s.start_ns = 1000;
  s.duration_ns = 2500;
  s.trace_id = 0xa1;
  s.span_id = 0xb2;
  s.parent_id = 0xc3;
  s.flow = static_cast<std::uint8_t>(obs::FlowDir::In);
  msg.spans.push_back(s);
  // Flight text larger than one string chunk (kMaxNameLength) must chunk
  // transparently through the codec.
  msg.flight = std::string(3 * kMaxNameLength + 17, 'f');
  msg.flight += "tail-marker";
  const TraceDumpResponseMsg back =
      TraceDumpResponseMsg::decode(round_trip(msg.to_frame()));
  EXPECT_EQ(back.server_now_ns, 123456789u);
  EXPECT_EQ(back.drops, 7u);
  ASSERT_EQ(back.spans.size(), 1u);
  EXPECT_EQ(back.spans[0].name, "server.apply");
  EXPECT_EQ(back.spans[0].tid, 3u);
  EXPECT_EQ(back.spans[0].start_ns, 1000u);
  EXPECT_EQ(back.spans[0].duration_ns, 2500u);
  EXPECT_EQ(back.spans[0].trace_id, 0xa1u);
  EXPECT_EQ(back.spans[0].span_id, 0xb2u);
  EXPECT_EQ(back.spans[0].parent_id, 0xc3u);
  EXPECT_EQ(back.spans[0].flow, static_cast<std::uint8_t>(obs::FlowDir::In));
  EXPECT_EQ(back.flight, msg.flight);
}

// The tentpole property: 8 concurrent traced sessions, and afterwards
// every server-side stage span belongs to a trace some client request
// minted, with every parent id resolving inside its own trace.  (Client
// and server share one process here, hence one span ring — the dump holds
// both halves, which is exactly what the integrity check needs.)
TEST(TracingEndToEnd, ConcurrentSessionsKeepCausalChainsIntact) {
  if (!obs::kEnabled) GTEST_SKIP() << "spans compiled out (BBMG_OBS=OFF)";
  obs::SpanRing& ring = obs::SpanRing::instance();
  ring.set_capacity(1 << 15);  // room for every span of the test
  ring.set_enabled(true);
  ring.clear();

  ServerConfig config;
  config.manager.workers = 3;
  Server server(config);
  server.start();

  constexpr std::size_t kSessions = 8;
  constexpr std::size_t kPeriods = 5;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kSessions; ++c) {
    threads.emplace_back([&, c] {
      const Trace trace = gm_trace(100 + c, kPeriods);
      ResilientClient client;
      client.set_tracing(true);
      client.connect("127.0.0.1", server.port());
      const std::uint32_t session = client.open_session(trace.task_names());
      for (const Period& p : trace.periods()) {
        client.send_period(session, p.to_events());
      }
      (void)client.query(session, /*drain=*/true);
    });
  }
  for (std::thread& t : threads) t.join();

  // Fetch over the wire like a real operator (also covers the dump path).
  ServeClient probe;
  probe.connect("127.0.0.1", server.port());
  const TraceDumpResponseMsg dump = probe.fetch_trace_dump(/*drain=*/true);
  server.stop();
  ring.set_enabled(false);

  ASSERT_EQ(dump.drops, 0u) << "ring too small for the test's span volume";
  // Plain stage timers (learner.period &c) share the ring with trace_id 0;
  // the causal checks cover only spans that claim a trace.
  std::map<std::uint64_t, const WireSpan*> by_span_id;
  std::set<std::uint64_t> client_traces;
  for (const WireSpan& s : dump.spans) {
    if (s.trace_id == 0) continue;
    ASSERT_NE(s.span_id, 0u);
    EXPECT_TRUE(by_span_id.emplace(s.span_id, &s).second)
        << "duplicate span id " << s.span_id;
    if (s.name.rfind("client.", 0) == 0) client_traces.insert(s.trace_id);
  }
  EXPECT_GE(client_traces.size(), kSessions * kPeriods)
      << "every traced request mints its own trace id";

  std::size_t server_spans = 0;
  for (const WireSpan& s : dump.spans) {
    if (s.trace_id == 0) continue;
    if (s.name.rfind("client.", 0) == 0) {
      EXPECT_EQ(s.parent_id, 0u) << "client spans are roots";
      continue;
    }
    ++server_spans;
    EXPECT_TRUE(client_traces.count(s.trace_id))
        << s.name << " carries a trace no client minted";
    ASSERT_NE(s.parent_id, 0u) << s.name << " has no parent";
    const auto parent = by_span_id.find(s.parent_id);
    ASSERT_NE(parent, by_span_id.end())
        << s.name << " parent id does not resolve";
    EXPECT_EQ(parent->second->trace_id, s.trace_id)
        << s.name << " parent belongs to another trace";
  }
  // decode + queue_wait + apply + ack at minimum, per period, per session.
  EXPECT_GE(server_spans, kSessions * kPeriods * 4);
}

// -- Chrome export validity ------------------------------------------------

/// Minimal structural JSON check: balanced brackets/braces outside
/// strings, no trailing garbage.  (No JSON library in this repo; the CI
/// job runs the real `jq` validation against a live daemon.)
bool json_balanced(const std::string& text) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char ch : text) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (ch == '\\') {
        escaped = true;
      } else if (ch == '"') {
        in_string = false;
      }
      continue;
    }
    if (ch == '"') in_string = true;
    else if (ch == '[' || ch == '{') ++depth;
    else if (ch == ']' || ch == '}') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_string;
}

std::vector<std::string> extract_flow_ids(const std::string& json,
                                          const std::string& ph) {
  // Events look like {..., "ph": "s", ..., "id": "a1b2..."}; collect the
  // id of every event with the given phase.
  std::vector<std::string> ids;
  const std::string ph_key = "\"ph\": \"" + ph + "\"";
  std::size_t pos = 0;
  while ((pos = json.find(ph_key, pos)) != std::string::npos) {
    const std::size_t obj_end = json.find('}', pos);
    const std::size_t id_key = json.find("\"id\": \"", pos);
    if (id_key != std::string::npos && id_key < obj_end) {
      const std::size_t start = id_key + 7;
      const std::size_t end = json.find('"', start);
      ids.push_back(json.substr(start, end - start));
    }
    pos += ph_key.size();
  }
  return ids;
}

TEST(ChromeExport, MergedExportIsValidJsonWithMatchingFlowIds) {
  // A hand-built two-process trace: client root (flow Out) and server
  // stage (flow In) share a trace id; a second trace does the same.
  std::vector<obs::ExportSpan> spans;
  for (std::uint64_t t : {0x11ull, 0x22ull}) {
    obs::ExportSpan out;
    out.name = "client.send_period";
    out.pid = 1;
    out.start_ns = 1000 * t;
    out.duration_ns = 5000;
    out.trace_id = t;
    out.span_id = t * 10 + 1;
    out.flow = static_cast<std::uint8_t>(obs::FlowDir::Out);
    spans.push_back(out);
    obs::ExportSpan in;
    in.name = "server.decode";
    in.pid = 2;
    in.start_ns = 1000 * t + 2000;
    in.duration_ns = 300;
    in.trace_id = t;
    in.span_id = t * 10 + 2;
    in.parent_id = t * 10 + 1;
    in.flow = static_cast<std::uint8_t>(obs::FlowDir::In);
    spans.push_back(in);
  }
  const std::string json = to_chrome_trace_json(spans);
  EXPECT_TRUE(json_balanced(json)) << json;
  EXPECT_EQ(json.front(), '[');

  const std::vector<std::string> starts = extract_flow_ids(json, "s");
  const std::vector<std::string> finishes = extract_flow_ids(json, "f");
  ASSERT_EQ(starts.size(), 2u);
  ASSERT_EQ(finishes.size(), 2u);
  EXPECT_EQ(std::set<std::string>(starts.begin(), starts.end()),
            std::set<std::string>(finishes.begin(), finishes.end()));
  // Complete events carry the causal ids as args.
  EXPECT_NE(json.find("\"parent\""), std::string::npos);
  EXPECT_NE(json.find("\"trace\""), std::string::npos);
}

}  // namespace
}  // namespace bbmg
