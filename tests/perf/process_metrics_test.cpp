// Process self-metrics: /proc/self parsing and the lazily-refreshed
// Prometheus surface (bbmg_process_* gauges plus the monotone CPU counter).
#include <gtest/gtest.h>

#include <vector>

#include "obs/metrics.hpp"
#include "obs/process_metrics.hpp"
#include "support/metrics.hpp"

namespace bbmg::obs {
namespace {

TEST(ProcessMetrics, ReadsProcSelf) {
  const ProcessSelfStats stats = read_process_self_stats();
#ifdef __linux__
  ASSERT_TRUE(stats.ok);
  EXPECT_GT(stats.rss_bytes, 0u);
  EXPECT_GE(stats.vm_bytes, stats.rss_bytes);
  // stdin/stdout/stderr at minimum.
  EXPECT_GE(stats.open_fds, 3u);
#else
  EXPECT_FALSE(stats.ok);
#endif
}

#ifdef __linux__
TEST(ProcessMetrics, RefreshPublishesGauges) {
  if (!kEnabled) GTEST_SKIP() << "metrics registry compiled out (BBMG_OBS=OFF)";
  refresh_process_metrics();
  const MetricsSnapshot snap = MetricsRegistry::instance().snapshot();

  const GaugeSample* rss = find_gauge(snap, "bbmg_process_rss_bytes");
  ASSERT_NE(rss, nullptr);
  EXPECT_GT(rss->value, 0);

  const GaugeSample* vm = find_gauge(snap, "bbmg_process_vm_bytes");
  ASSERT_NE(vm, nullptr);
  EXPECT_GE(vm->value, rss->value);

  const GaugeSample* fds = find_gauge(snap, "bbmg_process_open_fds");
  ASSERT_NE(fds, nullptr);
  EXPECT_GE(fds->value, 3);

  ASSERT_NE(snap.find_counter("bbmg_process_cpu_millis_total"), nullptr);
}

TEST(ProcessMetrics, CpuCounterIsMonotoneAcrossRefreshes) {
  if (!kEnabled) GTEST_SKIP() << "metrics registry compiled out (BBMG_OBS=OFF)";
  refresh_process_metrics();
  const std::uint64_t first = MetricsRegistry::instance()
                                  .snapshot()
                                  .counter_value("bbmg_process_cpu_millis_total");
  // Burn CPU so the next refresh has a visible delta to add.
  volatile std::uint64_t sink = 0;
  for (std::uint64_t i = 0; i < 20'000'000; ++i) sink = sink + i * i;
  (void)sink;
  refresh_process_metrics();
  const std::uint64_t second = MetricsRegistry::instance()
                                   .snapshot()
                                   .counter_value("bbmg_process_cpu_millis_total");
  EXPECT_GE(second, first);

  // RSS tracks growth: allocate a visible chunk and re-read.
  std::vector<char> ballast(32u << 20, 1);
  refresh_process_metrics();
  const MetricsSnapshot snap = MetricsRegistry::instance().snapshot();
  const GaugeSample* rss = find_gauge(snap, "bbmg_process_rss_bytes");
  ASSERT_NE(rss, nullptr);
  EXPECT_GT(rss->value, 0);
  EXPECT_GT(ballast[1 << 20], 0);
}
#endif

}  // namespace
}  // namespace bbmg::obs
