// Version-space introspection: histogram bucket math, the wire codecs
// (VspaceRequest/Response round-trip, truncation rejection, the TraceDump
// hardware trailer that every dump carries), and the end-to-end
// path — a live server learning a trace answers fetch_vspace with the
// numbers the learner accumulated.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/vspace_stats.hpp"
#include "obs/alloc_track.hpp"
#include "gen/gm_case_study.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sim/simulator.hpp"

namespace bbmg {
namespace {

TEST(VspaceHistogram, BucketIndexBoundaries) {
  // Bounds are 1, 2, 4, ..., 4096, then overflow.
  EXPECT_EQ(VspaceHistogram::bucket_index(0), 0u);
  EXPECT_EQ(VspaceHistogram::bucket_index(1), 0u);
  EXPECT_EQ(VspaceHistogram::bucket_index(2), 1u);
  EXPECT_EQ(VspaceHistogram::bucket_index(3), 2u);
  EXPECT_EQ(VspaceHistogram::bucket_index(4), 2u);
  EXPECT_EQ(VspaceHistogram::bucket_index(5), 3u);
  EXPECT_EQ(VspaceHistogram::bucket_index(4096), kVspaceHistBuckets - 1);
  EXPECT_EQ(VspaceHistogram::bucket_index(4097), kVspaceHistBuckets);
  EXPECT_EQ(VspaceHistogram::bucket_index(~0ull), kVspaceHistBuckets);
}

TEST(VspaceHistogram, SnapshotShapeAndMean) {
  VspaceHistogram h;
  h.observe(1);
  h.observe(3);
  h.observe(5000);  // overflow bucket
  const VspaceHistogramSnapshot s = h.snapshot();
  ASSERT_EQ(s.bounds.size(), kVspaceHistBuckets);
  ASSERT_EQ(s.counts.size(), kVspaceHistBuckets + 1);
  EXPECT_EQ(s.bounds.front(), 1u);
  EXPECT_EQ(s.bounds.back(), 4096u);
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(s.sum, 5004u);
  EXPECT_EQ(s.counts[0], 1u);
  EXPECT_EQ(s.counts[2], 1u);
  EXPECT_EQ(s.counts.back(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5004.0 / 3.0);
  EXPECT_DOUBLE_EQ(VspaceHistogramSnapshot{}.mean(), 0.0);
}

TEST(VspaceStats, AccumulatesPeaksAndChurn) {
  VersionSpaceStats stats;
  stats.on_period(4, 1000);
  stats.on_period(9, 3000);
  stats.on_period(2, 500);
  stats.on_message(3, 12);
  stats.on_alloc(2048, 7);

  const VspaceSnapshot s = stats.snapshot();
  EXPECT_EQ(s.periods, 3u);
  EXPECT_EQ(s.hypotheses, 2u);
  EXPECT_EQ(s.peak_hypotheses, 9u);
  EXPECT_EQ(s.frontier_bytes, 500u);
  EXPECT_EQ(s.peak_frontier_bytes, 3000u);
  EXPECT_EQ(s.alloc_bytes, 2048u);
  EXPECT_EQ(s.allocs, 7u);
  EXPECT_EQ(s.branching.count, 1u);
  EXPECT_EQ(s.scan.sum, 12u);
}

VspaceSnapshot sample_snapshot() {
  VersionSpaceStats stats;
  stats.on_period(4, 1000);
  stats.on_period(9, 3000);
  for (std::uint64_t v : {1ull, 2ull, 7ull, 4096ull, 100000ull}) {
    stats.on_message(v, v * 3);
  }
  stats.on_alloc(4096, 17);
  return stats.snapshot();
}

TEST(VspaceWire, RequestRoundTrip) {
  VspaceRequestMsg req;
  req.session = 42;
  const Frame f = req.to_frame();
  EXPECT_EQ(f.type, FrameType::VspaceRequest);
  EXPECT_EQ(VspaceRequestMsg::decode(f).session, 42u);
}

TEST(VspaceWire, ResponseRoundTrip) {
  VspaceResponseMsg msg;
  msg.session = 9;
  msg.stats = sample_snapshot();
  const Frame f = msg.to_frame();
  EXPECT_EQ(f.type, FrameType::VspaceResponse);

  const VspaceResponseMsg back = VspaceResponseMsg::decode(f);
  EXPECT_EQ(back.session, 9u);
  EXPECT_EQ(back.stats.periods, msg.stats.periods);
  EXPECT_EQ(back.stats.hypotheses, msg.stats.hypotheses);
  EXPECT_EQ(back.stats.peak_hypotheses, msg.stats.peak_hypotheses);
  EXPECT_EQ(back.stats.frontier_bytes, msg.stats.frontier_bytes);
  EXPECT_EQ(back.stats.peak_frontier_bytes, msg.stats.peak_frontier_bytes);
  EXPECT_EQ(back.stats.alloc_bytes, 4096u);
  EXPECT_EQ(back.stats.allocs, 17u);
  EXPECT_EQ(back.stats.branching.bounds, msg.stats.branching.bounds);
  EXPECT_EQ(back.stats.branching.counts, msg.stats.branching.counts);
  EXPECT_EQ(back.stats.branching.sum, msg.stats.branching.sum);
  EXPECT_EQ(back.stats.branching.count, msg.stats.branching.count);
  EXPECT_EQ(back.stats.scan.counts, msg.stats.scan.counts);
  EXPECT_EQ(back.stats.scan.sum, msg.stats.scan.sum);
}

TEST(VspaceWire, TruncatedResponseRaises) {
  VspaceResponseMsg msg;
  msg.stats = sample_snapshot();
  Frame f = msg.to_frame();
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{4}, std::size_t{30},
        f.payload.size() - 1}) {
    Frame cut = f;
    cut.payload.resize(keep);
    EXPECT_THROW((void)VspaceResponseMsg::decode(cut), Error) << keep;
  }
  // Extra trailing bytes are equally a framing bug.
  Frame extra = f;
  extra.payload.push_back(0);
  EXPECT_THROW((void)VspaceResponseMsg::decode(extra), Error);
}

WireSpan sample_span() {
  WireSpan s;
  s.name = "learner.period";
  s.tid = 2;
  s.start_ns = 100;
  s.duration_ns = 900;
  s.trace_id = 0xabc;
  s.span_id = 7;
  s.cycles = 11111;
  s.instructions = 22222;
  s.cache_misses = 33;
  s.branch_misses = 44;
  return s;
}

TEST(TraceDumpWire, HwTrailerRoundTrip) {
  TraceDumpResponseMsg msg;
  msg.server_now_ns = 12345;
  msg.spans = {sample_span(), sample_span()};
  msg.spans[1].name = "serve.query";
  msg.spans[1].cycles = 5;

  const TraceDumpResponseMsg back = TraceDumpResponseMsg::decode(msg.to_frame());
  ASSERT_EQ(back.spans.size(), 2u);
  EXPECT_EQ(back.spans[0].cycles, 11111u);
  EXPECT_EQ(back.spans[0].instructions, 22222u);
  EXPECT_EQ(back.spans[0].cache_misses, 33u);
  EXPECT_EQ(back.spans[0].branch_misses, 44u);
  EXPECT_EQ(back.spans[1].cycles, 5u);
  EXPECT_EQ(back.spans[1].name, "serve.query");
}

TEST(TraceDumpWire, UnknownTrailerMarkerRaises) {
  TraceDumpResponseMsg msg;
  msg.spans = {sample_span()};
  Frame f = msg.to_frame();
  // The trailer is the marker byte plus four u64 counters per span.
  const std::size_t marker_at = f.payload.size() - 1 - 4 * 8;
  ASSERT_EQ(f.payload[marker_at], 1u);
  f.payload[marker_at] = 2;  // a trailer format this build does not speak
  EXPECT_THROW((void)TraceDumpResponseMsg::decode(f), Error);
}

TEST(TraceDumpWire, FrameWithoutTrailerRaises) {
  TraceDumpResponseMsg msg;
  msg.spans = {sample_span()};
  Frame f = msg.to_frame();
  f.payload.resize(f.payload.size() - 1 - 4 * 8);
  EXPECT_THROW((void)TraceDumpResponseMsg::decode(f), Error);
}

TEST(VspaceEndToEnd, ServerReportsLearnerVersionSpace) {
  Server server;
  server.start();
  ASSERT_GT(server.port(), 0);

  SimConfig cfg;
  cfg.seed = 11;
  const Trace trace = simulate_trace(gm_case_study_model(), 12, cfg);

  ServeClient client;
  client.connect("127.0.0.1", server.port());
  const std::uint32_t session = client.open_session(trace.task_names());
  client.send_trace(session, trace);
  // Drain so every period has been learned before we sample.
  (void)client.query(session, /*drain=*/true);

  const VspaceResponseMsg resp = client.fetch_vspace(session);
  EXPECT_EQ(resp.session, session);
  EXPECT_EQ(resp.stats.periods, trace.num_periods());
  EXPECT_GE(resp.stats.hypotheses, 1u);
  EXPECT_GE(resp.stats.peak_hypotheses, resp.stats.hypotheses);
  EXPECT_GT(resp.stats.frontier_bytes, 0u);
  EXPECT_GE(resp.stats.peak_frontier_bytes, resp.stats.frontier_bytes);
  // The GM case study has message traffic, so the branching loop ran.
  EXPECT_GT(resp.stats.branching.count, 0u);
  EXPECT_GT(resp.stats.scan.count, 0u);
  if (obs::kAllocTrackEnabled) {
    EXPECT_GT(resp.stats.alloc_bytes, 0u);
    EXPECT_GT(resp.stats.allocs, 0u);
  }

  // Unknown sessions answer ErrorReply, not a hung connection.
  EXPECT_THROW((void)client.fetch_vspace(session + 999), ServerError);

  client.close_session(session);
  server.stop();
}

}  // namespace
}  // namespace bbmg
