// Golden bytes of the wire protocol: every frame type, encoded from fixed
// field values, must produce exactly the pinned hex, and decoding the
// pinned bytes must re-encode them unchanged.  A failure here means the
// encoding changed and every deployed peer would stop understanding it.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "serve/protocol.hpp"

namespace bbmg {
namespace {

std::string to_hex(const std::vector<std::uint8_t>& bytes) {
  static const char* const kDigits = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xf];
  }
  return out;
}

std::vector<std::uint8_t> from_hex(const std::string& hex) {
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(
        static_cast<std::uint8_t>(std::stoul(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

struct Golden {
  const char* name;
  Frame frame;
  /// Decode the frame and encode the result again.
  std::function<Frame(const Frame&)> reencode;
  const char* hex;
};

template <class Msg>
std::function<Frame(const Frame&)> reencode_as() {
  return [](const Frame& f) { return Msg::decode(f).to_frame(); };
}

template <class Msg>
std::function<Frame(const Frame&)> reencode_typed() {
  return [](const Frame& f) { return Msg::decode(f).to_frame(f.type); };
}

std::vector<Event> sample_events() {
  return {Event::task_start(10, TaskId{0u}), Event::msg_rise(12, 0x5a5),
          Event::msg_fall(14, 0x5a5), Event::task_end(20, TaskId{0u})};
}

VspaceHistogramSnapshot sample_hist(std::uint64_t base) {
  VspaceHistogramSnapshot h;
  h.bounds = {1, 2, 4};
  h.counts = {base, base + 1, base + 2, base + 3};
  h.sum = base * 10;
  h.count = 4 * base + 6;
  return h;
}

std::vector<Golden> goldens() {
  std::vector<Golden> g;

  g.push_back({"Hello", HelloMsg{}.to_frame(FrameType::Hello),
               reencode_typed<HelloMsg>(),
               "060000000142424d470700"});
  g.push_back({"HelloAck", HelloMsg{}.to_frame(FrameType::HelloAck),
               reencode_typed<HelloMsg>(),
               "060000000242424d470700"});

  OpenSessionMsg open;
  open.task_names = {"brake", "abs"};
  open.bound = 8;
  open.policy = SanitizePolicy::Quarantine;
  open.snapshot_interval = 4;
  g.push_back({"OpenSession", open.to_frame(), reencode_as<OpenSessionMsg>(),
               "1700000003020005006272616b650300616273080000000204000000"});

  g.push_back({"SessionOpened",
               SessionRefMsg{3}.to_frame(FrameType::SessionOpened),
               reencode_typed<SessionRefMsg>(),
               "040000000403000000"});

  EventsMsg events;
  events.session = 3;
  events.events = sample_events();
  g.push_back({"Events", events.to_frame(), reencode_as<EventsMsg>(),
               "3c00000005030000000400000000000000000a0000000000000002a505"
               "00000c0000000000000003a50500000e00000000000000010000000014"
               "00000000000000"});

  g.push_back({"EndPeriod/epoch0", EndPeriodMsg{3, 11, 0}.to_frame(),
               reencode_as<EndPeriodMsg>(),
               "0c00000006030000000b00000000000000"});
  g.push_back({"EndPeriod/epoch5", EndPeriodMsg{3, 11, 5}.to_frame(),
               reencode_as<EndPeriodMsg>(),
               "1400000006030000000b000000000000000500000000000000"});

  QueryMsg query;
  query.session = 3;
  query.drain = true;
  query.probe = std::vector<Event>{Event::task_start(1, TaskId{1u}),
                                   Event::task_end(2, TaskId{1u})};
  g.push_back({"Query", query.to_frame(), reencode_as<QueryMsg>(),
               "2300000007030000000302000000000100000001000000000000000101"
               "0000000200000000000000"});

  ModelReplyMsg model;
  model.session = 3;
  model.health = 1;
  model.periods_seen = 27;
  model.periods_learned = 26;
  model.periods_quarantined = 1;
  model.repairs = 2;
  model.converged = 1;
  model.num_hypotheses = 5;
  model.verdict = static_cast<std::uint8_t>(ProbeVerdict::Conforms);
  model.num_violations = 0;
  DependencyMatrix m(3);
  m.set_pair(0, 1, DepValue::Forward);
  m.set(1, 2, DepValue::MaybeBackward);
  model.lub = m;
  model.weight = m.weight();
  g.push_back({"ModelReply", model.to_frame(), reencode_as<ModelReplyMsg>(),
               "420000000803000000011b000000000000001a00000000000000010000"
               "0000000000020000000000000001050000000600000000000000010000"
               "00000300000100020005000000"});

  g.push_back({"CloseSession",
               SessionRefMsg{3}.to_frame(FrameType::CloseSession),
               reencode_typed<SessionRefMsg>(),
               "040000000903000000"});
  g.push_back({"SessionClosed",
               SessionRefMsg{3}.to_frame(FrameType::SessionClosed),
               reencode_typed<SessionRefMsg>(),
               "040000000a03000000"});

  g.push_back({"ErrorReply",
               ErrorReplyMsg{WireErrorCode::Fenced, "fenced"}.to_frame(),
               reencode_as<ErrorReplyMsg>(),
               "0a0000000b0500060066656e636564"});

  g.push_back({"MetricsRequest", MetricsRequestMsg{}.to_frame(),
               reencode_as<MetricsRequestMsg>(),
               "000000000c"});

  MetricsResponseMsg metrics;
  metrics.snapshot.counters.push_back({"c_total", 42});
  metrics.snapshot.gauges.push_back({"g", -3});
  obs::HistogramSample h;
  h.name = "h_us";
  h.upper_bounds = {1, 4};
  h.counts = {5, 2, 1};
  h.sum = 123;
  h.count = 8;
  metrics.snapshot.histograms.push_back(h);
  g.push_back({"MetricsResponse", metrics.to_frame(),
               reencode_as<MetricsResponseMsg>(),
               "6a0000000d010000000700635f746f74616c2a00000000000000010000"
               "00010067fdffffffffffffff010000000400685f757302000000010000"
               "0000000000040000000000000005000000000000000200000000000000"
               "01000000000000007b000000000000000800000000000000"});

  g.push_back({"Resume", SessionRefMsg{3}.to_frame(FrameType::Resume),
               reencode_typed<SessionRefMsg>(),
               "040000000e03000000"});
  g.push_back({"ResumeAck", ResumeAckMsg{3, 9}.to_frame(),
               reencode_as<ResumeAckMsg>(),
               "0c0000000f030000000900000000000000"});

  g.push_back({"TraceContext", TraceContextMsg{0xa1, 0xb2}.to_frame(),
               reencode_as<TraceContextMsg>(),
               "1000000010a100000000000000b200000000000000"});

  TraceDumpRequestMsg dump_req;
  dump_req.drain = false;
  dump_req.flight = true;
  g.push_back({"TraceDumpRequest", dump_req.to_frame(),
               reencode_as<TraceDumpRequestMsg>(),
               "010000001102"});

  TraceDumpResponseMsg dump;
  dump.server_now_ns = 123456789;
  dump.drops = 7;
  WireSpan s;
  s.name = "server.apply";
  s.tid = 3;
  s.start_ns = 1000;
  s.duration_ns = 2500;
  s.trace_id = 0xa1;
  s.span_id = 0xb2;
  s.parent_id = 0xc3;
  s.flow = 1;
  s.cycles = 11111;
  s.instructions = 22222;
  s.cache_misses = 33;
  s.branch_misses = 44;
  dump.spans = {s};
  dump.flight = "flight";
  g.push_back({"TraceDumpResponse", dump.to_frame(),
               reencode_as<TraceDumpResponseMsg>(),
               "7c0000001215cd5b07000000000700000000000000010000000c007365"
               "727665722e6170706c7903000000e803000000000000c4090000000000"
               "00a100000000000000b200000000000000c30000000000000001010000"
               "000600666c6967687401672b000000000000ce56000000000000210000"
               "00000000002c00000000000000"});

  OpenSessionAsMsg open_as;
  open_as.session = 2;
  open_as.task_names = {"brake", "abs"};
  open_as.bound = 16;
  open_as.epoch = 5;
  g.push_back({"OpenSessionAs", open_as.to_frame(),
               reencode_as<OpenSessionAsMsg>(),
               "230000001302000000020005006272616b650300616273100000000101"
               "0000000500000000000000"});

  g.push_back({"ClusterMapRequest", ClusterMapRequestMsg{}.to_frame(),
               reencode_as<ClusterMapRequestMsg>(),
               "0000000014"});

  ClusterMapResponseMsg map;
  map.epoch = 7;
  map.shards = {{"127.0.0.1:7227", "127.0.0.1:7327"}, {"127.0.0.1:7228", ""}};
  g.push_back({"ClusterMapResponse", map.to_frame(),
               reencode_as<ClusterMapResponseMsg>(),
               "3e000000150700000000000000020000000e003132372e302e302e313a"
               "373232370e003132372e302e302e313a373332370e003132372e302e30"
               "2e313a373232380000"});

  g.push_back({"Redirect", RedirectMsg{7, 1, "127.0.0.1:7228"}.to_frame(),
               reencode_as<RedirectMsg>(),
               "1c000000160700000000000000010000000e003132372e302e302e313a"
               "37323238"});

  OpenClusterSessionMsg open_cluster;
  open_cluster.key = "device-9";
  open_cluster.task_names = {"brake"};
  open_cluster.policy = SanitizePolicy::Strict;
  g.push_back({"OpenClusterSession", open_cluster.to_frame(),
               reencode_as<OpenClusterSessionMsg>(),
               "1c0000001708006465766963652d39010005006272616b651000000000"
               "01000000"});

  g.push_back({"HealthRequest", HealthRequestMsg{}.to_frame(),
               reencode_as<HealthRequestMsg>(),
               "0000000018"});

  HealthResponseMsg health;
  health.overall = kWireAlertWarn;
  health.evaluated_at_ms = 1700;
  health.objectives.push_back({"ingest-latency", kWireAlertWarn, 1500000,
                               900000, "fast 1.5x"});
  health.endpoints.push_back({"shard0", "127.0.0.1:7227", kWireEndpointOk,
                              20, 100, 1});
  g.push_back({"HealthResponse", health.to_frame(),
               reencode_as<HealthResponseMsg>(),
               "6e0000001901a406000000000000010000000e00696e676573742d6c61"
               "74656e63790160e3160000000000a0bb0d000000000009006661737420"
               "312e35780100000006007368617264300e003132372e302e302e313a37"
               "32323701140000000000000064000000000000000100000000000000"});

  MapUpdateMsg update;
  update.map = map;
  g.push_back({"MapUpdate", update.to_frame(), reencode_as<MapUpdateMsg>(),
               "3e0000001a0700000000000000020000000e003132372e302e302e313a"
               "373232370e003132372e302e302e313a373332370e003132372e302e30"
               "2e313a373232380000"});
  g.push_back({"MapUpdateAck", MapUpdateAckMsg{1, 7}.to_frame(),
               reencode_as<MapUpdateAckMsg>(),
               "090000001b010700000000000000"});

  g.push_back({"VspaceRequest", VspaceRequestMsg{3}.to_frame(),
               reencode_as<VspaceRequestMsg>(),
               "040000001c03000000"});

  VspaceResponseMsg vspace;
  vspace.session = 3;
  vspace.stats.periods = 27;
  vspace.stats.hypotheses = 4;
  vspace.stats.peak_hypotheses = 9;
  vspace.stats.frontier_bytes = 4096;
  vspace.stats.peak_frontier_bytes = 8192;
  vspace.stats.alloc_bytes = 65536;
  vspace.stats.allocs = 12;
  vspace.stats.branching = sample_hist(1);
  vspace.stats.scan = sample_hist(2);
  g.push_back({"VspaceResponse", vspace.to_frame(),
               reencode_as<VspaceResponseMsg>(),
               "a40000001d030000001b00000000000000040000000000000009000000"
               "000000000010000000000000002000000000000000000100000000000c"
               "000000000000000a000000000000000a00000000000000030000000100"
               "0000000000000200000000000000030000000000000004000000000000"
               "0014000000000000000e00000000000000030000000200000000000000"
               "030000000000000004000000000000000500000000000000"});
  return g;
}

TEST(WireGolden, EveryFrameTypeEncodesToItsPinnedBytes) {
  for (const Golden& golden : goldens()) {
    std::vector<std::uint8_t> bytes;
    append_frame(bytes, golden.frame);
    EXPECT_EQ(to_hex(bytes), golden.hex) << golden.name;
  }
}

TEST(WireGolden, PinnedBytesDecodeAndReencodeUnchanged) {
  for (const Golden& golden : goldens()) {
    const std::vector<std::uint8_t> bytes = from_hex(golden.hex);
    FrameDecoder decoder;
    decoder.feed(bytes.data(), bytes.size());
    const std::optional<Frame> frame = decoder.next();
    ASSERT_TRUE(frame.has_value()) << golden.name;
    EXPECT_EQ(decoder.buffered(), 0u) << golden.name;
    std::vector<std::uint8_t> again;
    append_frame(again, golden.reencode(*frame));
    EXPECT_EQ(to_hex(again), golden.hex) << golden.name;
  }
}

TEST(WireGolden, CoversEveryFrameType) {
  std::set<std::uint8_t> seen;
  for (const Golden& golden : goldens()) {
    seen.insert(static_cast<std::uint8_t>(golden.frame.type));
  }
  EXPECT_EQ(seen.size(), std::size_t{kMaxFrameType});
  EXPECT_EQ(*seen.begin(), 1u);
  EXPECT_EQ(*seen.rbegin(), kMaxFrameType);
}

}  // namespace
}  // namespace bbmg
