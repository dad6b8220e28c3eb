// Wire protocol framing: every message schema round-trips exactly through
// its frame; the incremental decoder reassembles frames from arbitrary
// chunk boundaries; truncated and corrupted frames are rejected.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "gen/scenarios.hpp"
#include "serve/protocol.hpp"

namespace bbmg {
namespace {

Frame through_decoder(const Frame& frame, std::size_t chunk_size) {
  std::vector<std::uint8_t> bytes;
  append_frame(bytes, frame);
  FrameDecoder decoder;
  std::optional<Frame> out;
  for (std::size_t i = 0; i < bytes.size(); i += chunk_size) {
    const std::size_t n = std::min(chunk_size, bytes.size() - i);
    decoder.feed(bytes.data() + i, n);
    if (auto f = decoder.next()) {
      EXPECT_FALSE(out.has_value()) << "frame decoded twice";
      out = std::move(f);
    }
  }
  EXPECT_TRUE(out.has_value()) << "frame never completed";
  EXPECT_EQ(decoder.buffered(), 0u);
  return std::move(*out);
}

TEST(Protocol, HelloRoundTripAnyChunking) {
  for (const std::size_t chunk : {1u, 2u, 3u, 7u, 64u}) {
    const Frame f = through_decoder(HelloMsg{}.to_frame(FrameType::Hello), chunk);
    EXPECT_EQ(f.type, FrameType::Hello);
    const HelloMsg m = HelloMsg::decode(f);
    EXPECT_EQ(m.magic, kServeMagic);
    EXPECT_EQ(m.version, kServeProtocolVersion);
  }
}

TEST(Protocol, OpenSessionRoundTrip) {
  OpenSessionMsg msg;
  msg.task_names = {"brake", "abs", "esp"};
  msg.bound = 8;
  msg.policy = SanitizePolicy::Quarantine;
  msg.snapshot_interval = 4;
  const OpenSessionMsg back =
      OpenSessionMsg::decode(through_decoder(msg.to_frame(), 5));
  EXPECT_EQ(back.task_names, msg.task_names);
  EXPECT_EQ(back.bound, 8u);
  EXPECT_EQ(back.policy, SanitizePolicy::Quarantine);
  EXPECT_EQ(back.snapshot_interval, 4u);
}

TEST(Protocol, EventsRoundTrip) {
  EventsMsg msg;
  msg.session = 3;
  msg.events = {Event::task_start(10, TaskId{0u}),
                Event::msg_rise(12, 0x5a5),
                Event::msg_fall(14, 0x5a5),
                Event::task_end(20, TaskId{0u})};
  const EventsMsg back = EventsMsg::decode(through_decoder(msg.to_frame(), 3));
  ASSERT_EQ(back.events.size(), 4u);
  EXPECT_EQ(back.session, 3u);
  EXPECT_EQ(back.events[1].can_id, 0x5a5u);
  EXPECT_EQ(back.events[3].time, 20u);
}

TEST(Protocol, QueryRoundTripWithAndWithoutProbe) {
  QueryMsg plain;
  plain.session = 9;
  plain.drain = false;
  const QueryMsg plain_back = QueryMsg::decode(through_decoder(plain.to_frame(), 4));
  EXPECT_EQ(plain_back.session, 9u);
  EXPECT_FALSE(plain_back.drain);
  EXPECT_FALSE(plain_back.probe.has_value());

  QueryMsg probed;
  probed.session = 2;
  probed.probe = std::vector<Event>{Event::task_start(1, TaskId{1u}),
                                    Event::task_end(2, TaskId{1u})};
  const QueryMsg probed_back =
      QueryMsg::decode(through_decoder(probed.to_frame(), 4));
  ASSERT_TRUE(probed_back.probe.has_value());
  EXPECT_EQ(probed_back.probe->size(), 2u);
  EXPECT_TRUE(probed_back.drain);
}

TEST(Protocol, ModelReplyRoundTripCarriesTheMatrixExactly) {
  ModelReplyMsg msg;
  msg.session = 1;
  msg.health = 1;
  msg.periods_seen = 27;
  msg.periods_learned = 26;
  msg.periods_quarantined = 1;
  msg.repairs = 3;
  msg.converged = 1;
  msg.num_hypotheses = 1;
  msg.verdict = static_cast<std::uint8_t>(ProbeVerdict::Conforms);
  DependencyMatrix m(4);
  m.set_pair(0, 1, DepValue::Forward);
  m.set(2, 3, DepValue::MaybeBackward);
  msg.lub = m;
  msg.weight = m.weight();
  const ModelReplyMsg back =
      ModelReplyMsg::decode(through_decoder(msg.to_frame(), 6));
  EXPECT_EQ(back.periods_seen, 27u);
  EXPECT_EQ(back.periods_quarantined, 1u);
  EXPECT_EQ(back.weight, m.weight());
  EXPECT_TRUE(back.lub == m);
}

TEST(Protocol, ErrorReplyRoundTrip) {
  ErrorReplyMsg msg{WireErrorCode::Overflow, "shard queue full"};
  const ErrorReplyMsg back =
      ErrorReplyMsg::decode(through_decoder(msg.to_frame(), 2));
  EXPECT_EQ(back.code, WireErrorCode::Overflow);
  EXPECT_EQ(back.message, "shard queue full");
}

TEST(Protocol, DecoderHoldsPartialFrameUntilComplete) {
  std::vector<std::uint8_t> bytes;
  append_frame(bytes, HelloMsg{}.to_frame(FrameType::Hello));
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size() - 1);
  EXPECT_FALSE(decoder.next().has_value());
  decoder.feed(bytes.data() + bytes.size() - 1, 1);
  EXPECT_TRUE(decoder.next().has_value());
}

TEST(Protocol, DecoderRejectsFrameTypeZero) {
  // Type 0 was never assigned; only corruption produces it.
  std::vector<std::uint8_t> bytes;
  append_u32(bytes, 0);
  append_u8(bytes, 0);
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  EXPECT_THROW((void)decoder.next(), Error);
}

TEST(Protocol, DecoderAcceptsExactlyTheKnownFrameTypes) {
  // Both peers speak one frame set, so any other type byte is corruption
  // and is rejected as soon as the 5-byte header has arrived.
  for (int type = 0; type <= 255; ++type) {
    std::vector<std::uint8_t> bytes;
    append_u32(bytes, 2);
    append_u8(bytes, static_cast<std::uint8_t>(type));
    const bool known = type >= 1 && type <= kMaxFrameType;
    FrameDecoder header_only;
    header_only.feed(bytes.data(), bytes.size());
    bytes.push_back(0xab);
    bytes.push_back(0xcd);
    FrameDecoder whole;
    whole.feed(bytes.data(), bytes.size());
    if (known) {
      EXPECT_FALSE(header_only.next().has_value()) << "type " << type;
      const std::optional<Frame> frame = whole.next();
      ASSERT_TRUE(frame.has_value()) << "type " << type;
      EXPECT_EQ(static_cast<int>(frame->type), type);
      EXPECT_EQ(frame->payload, (std::vector<std::uint8_t>{0xab, 0xcd}));
    } else {
      EXPECT_THROW((void)header_only.next(), Error) << "type " << type;
      EXPECT_THROW((void)whole.next(), Error) << "type " << type;
    }
  }
}

TEST(Protocol, HelloRejectsEveryOtherVersion) {
  for (const std::uint16_t version : {0, 2, 6, 8, 0xffff}) {
    HelloMsg hello;
    hello.version = version;
    try {
      (void)HelloMsg::decode(hello.to_frame(FrameType::Hello));
      ADD_FAILURE() << "version " << version << " accepted";
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()),
                "protocol: unsupported version " + std::to_string(version) +
                    " (speaking 7)");
    }
  }
}

TEST(Protocol, DecoderRejectsOversizedLength) {
  std::vector<std::uint8_t> bytes;
  append_u32(bytes, 0xffffffffu);
  append_u8(bytes, static_cast<std::uint8_t>(FrameType::Hello));
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  EXPECT_THROW((void)decoder.next(), Error);
}

TEST(Protocol, TruncatedPayloadsAreRejectedByEverySchema) {
  OpenSessionMsg open;
  open.task_names = {"a", "b"};
  const Frame f = open.to_frame();
  for (std::size_t cut = 0; cut < f.payload.size(); ++cut) {
    Frame shorter;
    shorter.type = f.type;
    shorter.payload.assign(f.payload.begin(),
                           f.payload.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW((void)OpenSessionMsg::decode(shorter), Error)
        << "payload prefix of " << cut << " bytes decoded";
  }
}

TEST(Protocol, GarbagePayloadBitsAreRejected) {
  QueryMsg msg;
  msg.session = 1;
  Frame f = msg.to_frame();
  f.payload.back() = 0xf0;  // unknown flag bits
  EXPECT_THROW((void)QueryMsg::decode(f), Error);
}

TEST(Protocol, MatrixPayloadRejectsInvalidValues) {
  std::vector<std::uint8_t> bytes;
  append_u16(bytes, 2);
  append_u8(bytes, 0);
  append_u8(bytes, 7);  // not a DepValue
  append_u8(bytes, 1);
  append_u8(bytes, 0);
  ByteReader r(bytes.data(), bytes.size());
  EXPECT_THROW((void)read_matrix_payload(r), Error);
}

TEST(Protocol, MatrixPayloadCarriesItsWeight) {
  DependencyMatrix m(3);
  m.set_pair(0, 1, DepValue::Forward);
  m.set(2, 0, DepValue::MaybeMutual);
  m.set(1, 2, DepValue::Mutual);
  std::vector<std::uint8_t> bytes;
  append_matrix(bytes, m);
  ByteReader r(bytes.data(), bytes.size());
  const DependencyMatrix got = read_matrix_payload(r);
  EXPECT_EQ(got, m);
  EXPECT_EQ(got.weight(), 1u + 1u + 9u + 4u);
}

TEST(Protocol, MatrixPayloadRejectsNonParallelDiagonal) {
  std::vector<std::uint8_t> bytes;
  append_u16(bytes, 1);
  append_u8(bytes, dep_code(DepValue::Forward));
  ByteReader r(bytes.data(), bytes.size());
  EXPECT_THROW((void)read_matrix_payload(r), Error);
}

TEST(Protocol, MetricsRequestRoundTrip) {
  const Frame f = through_decoder(MetricsRequestMsg{}.to_frame(), 3);
  EXPECT_EQ(f.type, FrameType::MetricsRequest);
  EXPECT_TRUE(f.payload.empty());
  (void)MetricsRequestMsg::decode(f);
}

TEST(Protocol, MetricsResponseRoundTripAnyChunking) {
  MetricsResponseMsg msg;
  msg.snapshot.counters.push_back({"bbmg_learner_periods_total", 42});
  msg.snapshot.counters.push_back(
      {"bbmg_robust_defects_total{kind=\"orphan_task_end\"}", 7});
  msg.snapshot.gauges.push_back({"bbmg_serve_queue_depth{worker=\"1\"}", -3});
  obs::HistogramSample h;
  h.name = "bbmg_serve_query_latency_us";
  h.upper_bounds = {1, 4, 16};
  h.counts = {5, 2, 0, 1};
  h.sum = 123;
  h.count = 8;
  msg.snapshot.histograms.push_back(h);

  for (const std::size_t chunk : {1u, 5u, 64u}) {
    const MetricsResponseMsg back =
        MetricsResponseMsg::decode(through_decoder(msg.to_frame(), chunk));
    ASSERT_EQ(back.snapshot.counters.size(), 2u);
    EXPECT_EQ(back.snapshot.counters[0].name, "bbmg_learner_periods_total");
    EXPECT_EQ(back.snapshot.counters[0].value, 42u);
    EXPECT_EQ(back.snapshot.counter_value(
                  "bbmg_robust_defects_total{kind=\"orphan_task_end\"}"),
              7u);
    ASSERT_EQ(back.snapshot.gauges.size(), 1u);
    EXPECT_EQ(back.snapshot.gauges[0].value, -3);
    ASSERT_EQ(back.snapshot.histograms.size(), 1u);
    const obs::HistogramSample& hh = back.snapshot.histograms[0];
    EXPECT_EQ(hh.upper_bounds, h.upper_bounds);
    EXPECT_EQ(hh.counts, h.counts);
    EXPECT_EQ(hh.sum, 123u);
    EXPECT_EQ(hh.count, 8u);
  }
}

TEST(Protocol, MetricsResponseRejectsTruncatedPayload) {
  MetricsResponseMsg msg;
  msg.snapshot.counters.push_back({"bbmg_a_total", 1});
  const Frame f = msg.to_frame();
  for (std::size_t cut = 0; cut < f.payload.size(); ++cut) {
    Frame shorter;
    shorter.type = f.type;
    shorter.payload.assign(f.payload.begin(),
                           f.payload.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW((void)MetricsResponseMsg::decode(shorter), Error)
        << "payload prefix of " << cut << " bytes decoded";
  }
}

TEST(Protocol, MapUpdateRoundTripsTheWholeMap) {
  MapUpdateMsg msg;
  msg.map.epoch = 7;
  msg.map.shards = {{"127.0.0.1:7227", "127.0.0.1:7327"},
                    {"127.0.0.1:7228", ""}};
  const Frame f = through_decoder(msg.to_frame(), 3);
  EXPECT_EQ(f.type, FrameType::MapUpdate);
  const MapUpdateMsg back = MapUpdateMsg::decode(f);
  EXPECT_EQ(back.map.epoch, 7u);
  ASSERT_EQ(back.map.shards.size(), 2u);
  EXPECT_EQ(back.map.shards[0].primary, "127.0.0.1:7227");
  EXPECT_EQ(back.map.shards[0].follower, "127.0.0.1:7327");
  EXPECT_EQ(back.map.shards[1].primary, "127.0.0.1:7228");
  EXPECT_EQ(back.map.shards[1].follower, "");
}

TEST(Protocol, MapUpdateAckRoundTrip) {
  MapUpdateAckMsg msg;
  msg.accepted = 1;
  msg.epoch = 9;
  const MapUpdateAckMsg back =
      MapUpdateAckMsg::decode(through_decoder(msg.to_frame(), 2));
  EXPECT_EQ(back.accepted, 1u);
  EXPECT_EQ(back.epoch, 9u);
}

TEST(Protocol, EndPeriodEpochIsAnOptionalTrailingField) {
  // Stamped: the epoch rides along and round-trips.
  EndPeriodMsg stamped;
  stamped.session = 4;
  stamped.seq = 11;
  stamped.epoch = 3;
  const EndPeriodMsg back =
      EndPeriodMsg::decode(through_decoder(stamped.to_frame(), 1));
  EXPECT_EQ(back.session, 4u);
  EXPECT_EQ(back.seq, 11u);
  EXPECT_EQ(back.epoch, 3u);

  // Unstamped (epoch 0) encodes WITHOUT the trailing field and decodes
  // back to 0.
  EndPeriodMsg legacy;
  legacy.session = 4;
  legacy.seq = 11;
  const Frame lf = legacy.to_frame();
  EXPECT_EQ(lf.payload.size(), stamped.to_frame().payload.size() - 8);
  EXPECT_EQ(EndPeriodMsg::decode(lf).epoch, 0u);
}

TEST(Protocol, OpenSessionAsEpochIsAnOptionalTrailingField) {
  OpenSessionAsMsg stamped;
  stamped.session = 2;
  stamped.task_names = {"brake", "abs"};
  stamped.epoch = 5;
  const OpenSessionAsMsg back =
      OpenSessionAsMsg::decode(through_decoder(stamped.to_frame(), 5));
  EXPECT_EQ(back.session, 2u);
  EXPECT_EQ(back.task_names, stamped.task_names);
  EXPECT_EQ(back.epoch, 5u);

  OpenSessionAsMsg legacy = stamped;
  legacy.epoch = 0;
  const Frame lf = legacy.to_frame();
  EXPECT_EQ(lf.payload.size(), stamped.to_frame().payload.size() - 8);
  EXPECT_EQ(OpenSessionAsMsg::decode(lf).epoch, 0u);
}

TEST(Protocol, OpenClusterSessionEpochIsAnOptionalTrailingField) {
  OpenClusterSessionMsg stamped;
  stamped.key = "device-9";
  stamped.task_names = {"brake"};
  stamped.epoch = 6;
  const OpenClusterSessionMsg back =
      OpenClusterSessionMsg::decode(through_decoder(stamped.to_frame(), 4));
  EXPECT_EQ(back.key, "device-9");
  EXPECT_EQ(back.epoch, 6u);

  OpenClusterSessionMsg legacy = stamped;
  legacy.epoch = 0;
  EXPECT_EQ(OpenClusterSessionMsg::decode(legacy.to_frame()).epoch, 0u);
}

}  // namespace
}  // namespace bbmg
