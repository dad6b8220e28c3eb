// PerfCounterGroup fallback paths: a denied or absent PMU must degrade to
// supported() == false with zero-reading samples — never an error — because
// CI containers and VMs are exactly where the test suite runs.  Also pins
// the delta arithmetic, PerfSpan's wall-clock-only fallback, and (for the
// TSan build) concurrent span recording + counter reads against a draining
// ring.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#ifdef __linux__
#include <fcntl.h>
#include <unistd.h>
#endif

#include "obs/metrics.hpp"
#include "obs/perf/perf_counters.hpp"
#include "obs/perf/perf_span.hpp"
#include "obs/span.hpp"
#include "support/metrics.hpp"

namespace bbmg::obs {
namespace {

TEST(PerfFallback, ParanoidDenialReportsUnsupported) {
  // A kernel with perf_event_paranoid >= 2 refuses the leader with EACCES.
  const PerfCounterGroup group([](PerfEvent, int) { return -EACCES; });
  EXPECT_FALSE(group.supported());
  EXPECT_EQ(group.num_open(), 0u);
  EXPECT_NE(group.unsupported_reason().find("perf_event_paranoid"),
            std::string::npos)
      << group.unsupported_reason();

  const PerfSample s = group.read();
  EXPECT_EQ(s.cycles(), 0u);
  EXPECT_EQ(s.instructions(), 0u);
  EXPECT_EQ(s.cache_misses(), 0u);
  EXPECT_EQ(s.branch_misses(), 0u);
}

TEST(PerfFallback, MissingPmuReportsUnsupported) {
  const PerfCounterGroup group([](PerfEvent, int) { return -ENOENT; });
  EXPECT_FALSE(group.supported());
  EXPECT_NE(group.unsupported_reason().find("PMU"), std::string::npos)
      << group.unsupported_reason();
  EXPECT_FALSE(group.read().cycles());
}

TEST(PerfFallback, EnosysReportsUnsupported) {
  // The non-Linux default opener path.
  const PerfCounterGroup group([](PerfEvent, int) { return -ENOSYS; });
  EXPECT_FALSE(group.supported());
  EXPECT_FALSE(group.unsupported_reason().empty());
}

#ifdef __linux__
TEST(PerfFallback, PartialPmuStaysSupportedWithAbsentSiblings) {
  // Leader opens, cache-miss sibling is absent (common in VMs).  The fds
  // handed out are real (so the destructor's close() is safe); reads on
  // /dev/null fail the group-format check and therefore report zero, which
  // is also the documented contract for a failing read.
  int opened = 0;
  const PerfCounterGroup group([&opened](PerfEvent ev, int) {
    if (ev == PerfEvent::CacheMisses) return -ENOENT;
    ++opened;
    return ::open("/dev/null", O_RDONLY);
  });
  EXPECT_TRUE(group.supported());
  EXPECT_EQ(group.num_open(), 3u);
  EXPECT_EQ(opened, 3);
  EXPECT_TRUE(group.unsupported_reason().empty());

  const PerfSample s = group.read();
  EXPECT_EQ(s.cycles(), 0u);
  EXPECT_EQ(s.cache_misses(), 0u);
}
#endif

TEST(PerfFallback, ThisThreadIsConsistentAndPublishesGauge) {
  PerfCounterGroup& a = PerfCounterGroup::this_thread();
  PerfCounterGroup& b = PerfCounterGroup::this_thread();
  EXPECT_EQ(&a, &b);
  // supported() and reason agree: exactly one of them is "set".
  EXPECT_EQ(a.supported(), a.unsupported_reason().empty());
  if (!a.supported()) {
    EXPECT_EQ(a.num_open(), 0u);
  }

  const MetricsSnapshot snap = MetricsRegistry::instance().snapshot();
  const GaugeSample* g = find_gauge(snap, "bbmg_perf_hw_supported");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->value, a.supported() ? 1 : 0);
}

TEST(PerfDeltaMath, SubtractsAndSaturates) {
  PerfSample begin;
  begin.value[0] = 100;  // cycles
  begin.value[1] = 250;  // instructions
  begin.value[2] = 7;    // cache misses
  begin.value[3] = 90;   // branch misses
  PerfSample end;
  end.value[0] = 300;
  end.value[1] = 650;
  end.value[2] = 7;
  end.value[3] = 40;  // counter went backwards (reset): saturate, not wrap

  const PerfDelta d = perf_delta(begin, end);
  EXPECT_EQ(d.cycles, 200u);
  EXPECT_EQ(d.instructions, 400u);
  EXPECT_EQ(d.cache_misses, 0u);
  EXPECT_EQ(d.branch_misses, 0u);
  EXPECT_TRUE(d.any());
  EXPECT_DOUBLE_EQ(d.ipc(), 2.0);
  EXPECT_DOUBLE_EQ(d.misses_per_kilo_instr(), 0.0);

  const PerfDelta zero = perf_delta(end, end);
  EXPECT_FALSE(zero.any());
  EXPECT_DOUBLE_EQ(zero.ipc(), 0.0);
}

TEST(PerfSpanFallback, UnsupportedGroupStillRecordsWallTime) {
  // A PerfSpan over an unsupported group must behave exactly like a plain
  // Span: wall-clock duration lands in the ring, hw fields stay zero.
  PerfCounterGroup denied([](PerfEvent, int) { return -EACCES; });
  SpanRing ring(64);
  ring.set_enabled(true);
  {
    PerfSpan span(nullptr, "test.stage", &ring, &denied);
    // Burn a little time so the duration is visibly nonzero.
    volatile std::uint64_t sink = 0;
    for (int i = 0; i < 10000; ++i) sink = sink + static_cast<std::uint64_t>(i);
    (void)sink;
  }
#if BBMG_OBS_ENABLED
  const std::vector<SpanRecord> records = ring.drain();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_STREQ(records[0].name, "test.stage");
  EXPECT_GT(records[0].duration_ns, 0u);
  EXPECT_EQ(records[0].cycles, 0u);
  EXPECT_EQ(records[0].instructions, 0u);
#endif
}

TEST(PerfSpanFallback, HwDeltaZeroWhenRingDisabled) {
  // Ring disabled => no counter reads at all (the cost-discipline rule).
  SpanRing ring(8);
  ring.set_enabled(false);
  PerfSpan span(nullptr, "test.disabled", &ring);
  span.finish();
  EXPECT_FALSE(span.hw().any());
}

TEST(PerfConcurrency, SpansAndCounterReadsRaceCleanly) {
  // The TSan target: writer threads record PerfSpans and read their
  // thread-local counter groups while a reader drains the shared ring.
  SpanRing ring(256);
  ring.set_enabled(true);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> produced{0};

  std::vector<std::thread> writers;
  for (int t = 0; t < 3; ++t) {
    writers.emplace_back([&] {
      for (int i = 0; i < 400; ++i) {
        PerfSpan span(nullptr, "race.unit", &ring);
        const PerfSample s = PerfCounterGroup::this_thread().read();
        (void)s;
        span.finish();
        produced.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::thread reader([&] {
    std::size_t seen = 0;
    while (!stop.load(std::memory_order_acquire)) {
      seen += ring.drain().size();
      std::this_thread::yield();
    }
    seen += ring.drain().size();
    (void)seen;
  });
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(produced.load(), 1200u);
}

}  // namespace
}  // namespace bbmg::obs
