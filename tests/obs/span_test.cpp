// Tests for the RAII stage timers and the span ring (obs/span.hpp) plus
// the Chrome trace export (obs/trace_export.hpp).  Span behaviour is gated
// on obs::kEnabled: with BBMG_OBS=OFF a Span is inert, the clock reads
// zero, and the ring stays empty.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace_export.hpp"

namespace bbmg::obs {
namespace {

TEST(Span, RecordsIntoHistogram) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("bbmg_span_us", default_latency_buckets_us());
  {
    Span span(&h, "test.stage", /*ring=*/nullptr);
  }
  EXPECT_EQ(h.count(), kEnabled ? 1u : 0u);
}

TEST(Span, FinishIsIdempotent) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("bbmg_span_us", default_latency_buckets_us());
  Span span(&h, "test.stage", /*ring=*/nullptr);
  span.finish();
  span.finish();  // second call must not double-record
  EXPECT_EQ(h.count(), kEnabled ? 1u : 0u);
}

TEST(Span, RingOnlyRecordsWhenEnabled) {
  SpanRing ring(8);
  { Span span(nullptr, "off", &ring); }
  EXPECT_TRUE(ring.records().empty());
  ring.set_enabled(true);
  { Span span(nullptr, "on", &ring); }
  if (kEnabled) {
    const auto records = ring.records();
    ASSERT_EQ(records.size(), 1u);
    EXPECT_STREQ(records[0].name, "on");
  } else {
    EXPECT_TRUE(ring.records().empty());
  }
}

TEST(SpanRing, OverwritesOldestWhenFull) {
  SpanRing ring(3);
  for (std::uint64_t i = 0; i < 5; ++i) {
    ring.record(SpanRecord{"s", i, 1, 0});
  }
  const auto records = ring.records();
  ASSERT_EQ(records.size(), 3u);
  // Oldest-first: 0 and 1 were evicted.
  EXPECT_EQ(records[0].start_ns, 2u);
  EXPECT_EQ(records[1].start_ns, 3u);
  EXPECT_EQ(records[2].start_ns, 4u);
  EXPECT_EQ(ring.total_recorded(), 5u);
}

TEST(SpanRing, DrainEmptiesTheRing) {
  SpanRing ring(4);
  ring.record(SpanRecord{"a", 1, 2, 0});
  ring.record(SpanRecord{"b", 3, 4, 1});
  const auto drained = ring.drain();
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_TRUE(ring.records().empty());
  EXPECT_EQ(ring.total_recorded(), 2u);  // drain does not reset the total
}

/// The export form of a ring record, as `bbmg_client trace --chrome`
/// builds it from a trace dump.
ExportSpan export_span(const SpanRecord& r) {
  ExportSpan e;
  e.name = r.name;
  e.tid = r.thread;
  e.start_ns = r.start_ns;
  e.duration_ns = r.duration_ns;
  return e;
}

TEST(ChromeTrace, RendersCompleteEvents) {
  const std::vector<ExportSpan> spans = {
      export_span(SpanRecord{"learner.period", 2000, 1500, 0}),
      export_span(SpanRecord{"serve.query", 5000, 250, 3}),
  };
  const std::string json = to_chrome_trace_json(spans);
  EXPECT_NE(json.find("\"name\": \"learner.period\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\": 3"), std::string::npos);
  // ns -> us: start 2000 ns == ts 2 us, duration 1500 ns == 1.5 us.
  EXPECT_NE(json.find("\"ts\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"dur\": 1.5"), std::string::npos);
  EXPECT_EQ(json.front(), '[');
}

TEST(ChromeTrace, ExportDrainsRingToFile) {
  SpanRing ring(8);
  ring.record(SpanRecord{"x", 10, 20, 0});
  const std::string path = ::testing::TempDir() + "/bbmg_spans.json";
  std::vector<ExportSpan> spans;
  for (const SpanRecord& r : ring.drain()) spans.push_back(export_span(r));
  write_chrome_trace(spans, path);
  EXPECT_EQ(spans.size(), 1u);
  EXPECT_TRUE(ring.records().empty());
  std::ifstream ifs(path);
  ASSERT_TRUE(ifs.good());
  std::stringstream buf;
  buf << ifs.rdbuf();
  EXPECT_NE(buf.str().find("\"name\": \"x\""), std::string::npos);
}

TEST(Span, ThreadIndexIsDenseAndStable) {
  const std::uint32_t mine = current_thread_index();
  EXPECT_EQ(current_thread_index(), mine);
}

}  // namespace
}  // namespace bbmg::obs
