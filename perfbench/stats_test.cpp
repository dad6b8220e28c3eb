// Tests of the benchmark's metric math (perfbench/stats.hpp).
#include "stats.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

using namespace perfbench;

namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

}  // namespace

TEST(Percentile, NearestRankOnUnsortedInput) {
  std::vector<double> v = one_to(100);
  std::swap(v[0], v[99]);
  EXPECT_EQ(percentile(v, 0.50), 50);
  EXPECT_EQ(percentile(v, 0.99), 99);
  EXPECT_EQ(percentile(v, 1.0), 100);
  EXPECT_EQ(percentile(v, 0.0), 1);
}

TEST(Percentile, SupportedOnlyWithTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_TRUE(percentile_supported(1000, 0.99));
  EXPECT_EQ(samples_beyond(999, 0.99), 9u);
  EXPECT_FALSE(percentile_supported(999, 0.99));
  EXPECT_TRUE(percentile_supported(100, 0.90));
  EXPECT_FALSE(percentile_supported(99, 0.90));
}

TEST(Percentile, WindowedTailIgnoresOneBurst) {
  // 8000 samples of 1 ms with a 200-sample burst of 50 ms in one window:
  // the plain p99 lands in the burst, the windowed p99 does not.
  std::vector<double> v(8000, 1.0);
  for (int i = 100; i < 300; ++i) v[i] = 50.0;
  EXPECT_EQ(percentile(v, 0.99), 50.0);
  EXPECT_EQ(windowed_percentile(v, 0.99), 1.0);
  // Too few samples for two supported windows: the plain percentile.
  const std::vector<double> small = one_to(1500);
  EXPECT_EQ(windowed_percentile(small, 0.99), percentile(small, 0.99));
}

TEST(FastestWindow, ASlowStretchDoesNotSetTheFigure) {
  // 400 samples of 10 ms, 60% of them slowed by 40% in one long stretch.
  std::vector<double> v(400, 10.0);
  for (int i = 100; i < 340; ++i) v[i] = 14.0;
  const auto med = [](std::vector<double> w) { return median(std::move(w)); };
  EXPECT_EQ(fastest_window(v, 4, med), 10.0);
  EXPECT_EQ(median(v), 14.0);
  EXPECT_EQ(fastest_window(v, 1, med), 14.0);
}

TEST(SelfTime, SpanMinusCoveredChildIntervals) {
  const std::vector<Span> spans = {
      {"parent", 1, 0, 0, 100},
      {"a", 2, 1, 10, 30},
      {"b", 3, 1, 20, 50},    // overlaps a: counted once
      {"c", 4, 1, 90, 120},   // only [90, 100] lies inside the parent
      {"grandchild", 5, 2, 12, 14},  // covered by a, not a direct child
  };
  EXPECT_EQ(self_time_ns(spans, 1), 100u - 40u - 10u);
  EXPECT_EQ(self_time_ns(spans, 2), 20u - 2u);
  EXPECT_EQ(self_time_ns(spans, 3), 30u);
  EXPECT_EQ(self_time_ns(spans, 42), 0u);
}

TEST(DueTime, StallIsChargedToEveryOperationBehindIt) {
  // 10 events per op at 10 000 events/s: one op due every millisecond.
  const std::vector<std::size_t> events(40, 10);
  const std::vector<std::uint64_t> due = due_times_ns(0, events, 10'000);
  ASSERT_EQ(due[1], 1'000'000u);
  ASSERT_EQ(due[39], 39'000'000u);
  // The system serves each op in 0.1 ms but stalls from 5 ms to 25 ms: the
  // send due at 5 ms blocks until the stall ends, and the ops queued behind
  // it go out back to back afterwards.
  const std::uint64_t service = 100'000, stall_begin = 5'000'000,
                      stall_end = 25'000'000;
  std::vector<std::uint64_t> start, end, done;
  std::uint64_t free_at = 0;
  for (std::size_t i = 0; i < due.size(); ++i) {
    const std::uint64_t s = std::max(due[i], i > 0 ? end[i - 1] : 0);
    start.push_back(s);
    end.push_back(s >= stall_begin && s < stall_end ? stall_end : s + 1'000);
    free_at = std::max(free_at, end.back()) + service;
    done.push_back(free_at);
  }
  const std::vector<double> lat = due_latencies_ms(due, done);
  // Every op due inside the stall is charged its wait.
  EXPECT_GT(lat[5], 20.0);
  EXPECT_GT(lat[6], 19.0);
  EXPECT_GT(lat[24], 0.9);
  EXPECT_LT(lat[39], 1.0);
  EXPECT_GT(percentile(lat, 0.90), 10.0);
  // Timed from its send instead, the op due at 6 ms would look fast: the
  // coordinated omission the due time avoids.
  EXPECT_LT(static_cast<double>(done[6] - start[6]) / 1e6, 0.25);
  // The generator itself was never late: every delay was spent blocked.
  for (const double l : generator_lateness_ms(due, start, end)) EXPECT_EQ(l, 0.0);
}

TEST(Backlog, GrowthIsTrendNotSpike) {
  std::vector<std::pair<std::uint64_t, double>> growing, spiky;
  for (std::uint64_t t = 0; t < 300; ++t) {
    growing.emplace_back(t, static_cast<double>(t) / 10.0);
    spiky.emplace_back(t, t > 280 && t < 290 ? 500.0 : 2.0);
  }
  EXPECT_TRUE(backlog_grows(growing, 8.0));
  EXPECT_FALSE(backlog_grows(spiky, 8.0));
}

TEST(Ladder, ClimbStopsAtTheFirstFailure) {
  const double limit = 64.0;
  const Rung ok{1000, 10.0, false, true};
  const Rung slow{4000, 80.0, false, true};
  const Rung backlog{8000, 20.0, true, true};
  const Rung invalid{16000, 5.0, false, false};
  EXPECT_EQ(sustained_rung({ok, ok, slow, ok}, limit), 1);
  EXPECT_EQ(sustained_rung({ok, backlog, ok}, limit), 0);
  EXPECT_EQ(sustained_rung({ok, ok, invalid}, limit), 1);
  EXPECT_EQ(sustained_rung({slow, ok}, limit), -1);
  EXPECT_EQ(sustained_rung({ok, ok, ok}, limit), 2);
  // The limit is inclusive.
  EXPECT_TRUE(rung_passes(Rung{1000, 64.0, false, true}, limit));
}
