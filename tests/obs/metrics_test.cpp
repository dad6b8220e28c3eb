// Unit tests for the metrics registry (obs/metrics.hpp): counter / gauge /
// histogram semantics, bucket boundary placement, registration idempotence,
// and the concurrency contract — N threads of relaxed increments sum
// exactly once the writers have joined.
//
// Tests that assert exact nonzero values are gated on obs::kEnabled: with
// BBMG_OBS=OFF every update is a no-op by design and the same assertions
// verify that values stay zero.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "support/metrics.hpp"

namespace bbmg::obs {
namespace {

TEST(Metrics, CounterAccumulates) {
  MetricsRegistry reg;
  Counter& c = reg.counter("bbmg_test_total");
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), kEnabled ? 42u : 0u);
}

TEST(Metrics, GaugeSetAddAndRatchet) {
  MetricsRegistry reg;
  Gauge& g = reg.gauge("bbmg_test_gauge");
  g.set(10);
  g.add(5);
  g.sub(3);
  EXPECT_EQ(g.value(), kEnabled ? 12 : 0);
  g.set_max(7);  // below current: no effect
  EXPECT_EQ(g.value(), kEnabled ? 12 : 0);
  g.set_max(99);
  EXPECT_EQ(g.value(), kEnabled ? 99 : 0);
}

TEST(Metrics, GaugeGoesNegative) {
  MetricsRegistry reg;
  Gauge& g = reg.gauge("bbmg_test_depth");
  g.sub(3);
  EXPECT_EQ(g.value(), kEnabled ? -3 : 0);
}

TEST(Metrics, RegistrationIsIdempotent) {
  MetricsRegistry reg;
  Counter& a = reg.counter("bbmg_same_total");
  Counter& b = reg.counter("bbmg_same_total");
  EXPECT_EQ(&a, &b);
  Histogram& h1 = reg.histogram("bbmg_same_us", {1, 2, 3});
  Histogram& h2 = reg.histogram("bbmg_same_us", {9, 9, 9});  // bounds ignored
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.upper_bounds(), (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(num_metrics(reg), 2u);
}

TEST(Metrics, HistogramBucketBoundariesAreInclusiveUpperBounds) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("bbmg_test_us", {10, 100, 1000});
  // A value equal to a bound lands in that bound's bucket; one past it
  // lands in the next; beyond every bound lands in +Inf.
  EXPECT_EQ(h.bucket_index(0), 0u);
  EXPECT_EQ(h.bucket_index(10), 0u);
  EXPECT_EQ(h.bucket_index(11), 1u);
  EXPECT_EQ(h.bucket_index(100), 1u);
  EXPECT_EQ(h.bucket_index(1000), 2u);
  EXPECT_EQ(h.bucket_index(1001), 3u);
}

TEST(Metrics, HistogramObserveCountsSumAndBuckets) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("bbmg_test_us", {10, 100});
  h.observe(5);
  h.observe(10);
  h.observe(50);
  h.observe(5000);
  const std::vector<std::uint64_t> counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 3u);  // two bounds + the +Inf overflow bucket
  if (kEnabled) {
    EXPECT_EQ(counts[0], 2u);
    EXPECT_EQ(counts[1], 1u);
    EXPECT_EQ(counts[2], 1u);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.sum(), 5065u);
  } else {
    EXPECT_EQ(counts, (std::vector<std::uint64_t>{0, 0, 0}));
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0u);
  }
}

TEST(Metrics, HistogramBoundsAreSortedAndDeduped) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("bbmg_test_us", {100, 10, 100, 1});
  EXPECT_EQ(h.upper_bounds(), (std::vector<std::uint64_t>{1, 10, 100}));
}

TEST(Metrics, DefaultLatencyBucketsAreAscending) {
  const std::vector<std::uint64_t> b = default_latency_buckets_us();
  ASSERT_GE(b.size(), 4u);
  EXPECT_EQ(b.front(), 1u);
  for (std::size_t i = 1; i < b.size(); ++i) EXPECT_LT(b[i - 1], b[i]);
}

TEST(Metrics, LabeledNameRendersPrometheusStyle) {
  EXPECT_EQ(labeled_name("bbmg_x_total", "kind", "orphan"),
            "bbmg_x_total{kind=\"orphan\"}");
}

TEST(Metrics, SnapshotFindsMetricsByName) {
  MetricsRegistry reg;
  reg.counter("bbmg_a_total").inc(3);
  reg.gauge("bbmg_b").set(-7);
  reg.histogram("bbmg_c_us", {10}).observe(4);
  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_NE(snap.find_counter("bbmg_a_total"), nullptr);
  ASSERT_NE(find_gauge(snap, "bbmg_b"), nullptr);
  ASSERT_NE(find_histogram(snap, "bbmg_c_us"), nullptr);
  EXPECT_EQ(snap.find_counter("bbmg_missing"), nullptr);
  EXPECT_EQ(snap.counter_value("bbmg_a_total"), kEnabled ? 3u : 0u);
  EXPECT_EQ(snap.counter_value("bbmg_missing"), 0u);
  EXPECT_EQ(find_gauge(snap, "bbmg_b")->value, kEnabled ? -7 : 0);
}

TEST(Metrics, SnapshotIsNameSorted) {
  MetricsRegistry reg;
  reg.counter("bbmg_z_total");
  reg.counter("bbmg_a_total");
  reg.counter("bbmg_m_total");
  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].name, "bbmg_a_total");
  EXPECT_EQ(snap.counters[1].name, "bbmg_m_total");
  EXPECT_EQ(snap.counters[2].name, "bbmg_z_total");
}

// The concurrency contract: relaxed increments from N threads are never
// lost; after join the totals are exact.
TEST(Metrics, ConcurrentIncrementsSumExactly) {
  MetricsRegistry reg;
  Counter& c = reg.counter("bbmg_mt_total");
  Histogram& h = reg.histogram("bbmg_mt_us", {8, 64});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 25000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, &h] {
      for (int i = 0; i < kPerThread; ++i) {
        c.inc();
        h.observe(static_cast<std::uint64_t>(i % 100));
      }
    });
  }
  for (auto& t : threads) t.join();
  const std::uint64_t expected =
      kEnabled ? static_cast<std::uint64_t>(kThreads) * kPerThread : 0u;
  EXPECT_EQ(c.value(), expected);
  EXPECT_EQ(h.count(), expected);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t n : h.bucket_counts()) bucket_total += n;
  EXPECT_EQ(bucket_total, expected);
}

TEST(Metrics, AlwaysOnPrimitivesIgnoreTheGate) {
  // AtomicCounter/AtomicMax are functional accounting, not
  // instrumentation: they count in every build.
  AtomicCounter c;
  c.add(2);
  c.add(3);
  c.sub(1);
  EXPECT_EQ(c.value(), 4u);
  AtomicMax m;
  m.update(10);
  m.update(7);
  EXPECT_EQ(m.value(), 10u);
}

}  // namespace
}  // namespace bbmg::obs
