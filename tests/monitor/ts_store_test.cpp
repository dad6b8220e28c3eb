// TsStore: delta-encoded series round trips, two-block ring rotation,
// backwards-timestamp clamping, and the index queries the aggregation/SLO
// layers navigate by.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "monitor/ts_store.hpp"

namespace bbmg::monitor {
namespace {

TEST(Series, RoundTripsJitteryTimestampsAndSignedValues) {
  Series s;
  const std::vector<TsSample> in = {
      {1000, 0},  {2003, 42},     {2950, -17},
      {4100, -17}, {5000, 1'000'000'000}, {6001, -999},
  };
  for (const TsSample& x : in) s.append(x.at_ms, x.value);

  const std::vector<TsSample> out = s.samples_since(0);
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i].at_ms, in[i].at_ms) << "sample " << i;
    EXPECT_EQ(out[i].value, in[i].value) << "sample " << i;
  }
  ASSERT_TRUE(s.latest().has_value());
  EXPECT_EQ(s.latest()->at_ms, 6001u);
  EXPECT_EQ(s.latest()->value, -999);
}

TEST(Series, SinceFiltersInclusively) {
  Series s;
  s.append(100, 1);
  s.append(200, 2);
  s.append(300, 3);
  const std::vector<TsSample> out = s.samples_since(200);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].value, 2);
  EXPECT_EQ(out[1].value, 3);
  EXPECT_TRUE(s.samples_since(301).empty());
}

TEST(Series, BackwardsTimestampIsClampedNotReordered) {
  Series s;
  s.append(500, 1);
  s.append(400, 2);  // clock went backwards: clamp to 500
  const std::vector<TsSample> out = s.samples_since(0);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1].at_ms, 500u);
  EXPECT_EQ(out[1].value, 2);
}

TEST(Series, RingRotationKeepsAtLeastOneFullBlock) {
  Series s;
  const std::size_t total = 3 * kBlockSamples + 7;
  for (std::size_t i = 0; i < total; ++i) {
    s.append(1000 * i, static_cast<std::int64_t>(i));
  }
  // Retention is [kBlockSamples, 2*kBlockSamples]; the retained suffix
  // must be contiguous and exact.
  EXPECT_GE(s.num_samples(), kBlockSamples);
  EXPECT_LE(s.num_samples(), 2 * kBlockSamples);
  const std::vector<TsSample> out = s.samples_since(0);
  ASSERT_EQ(out.size(), s.num_samples());
  const std::size_t first = total - out.size();
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].value, static_cast<std::int64_t>(first + i));
    EXPECT_EQ(out[i].at_ms, 1000 * (first + i));
  }
  // Delta coding earns its keep: 1 s cadence + small deltas must be far
  // under the 16 bytes/sample a flat array would pay.
  EXPECT_LT(s.encoded_bytes(), out.size() * 16);
}

TEST(TsStore, IndexQueriesAndStats) {
  TsStore store;
  store.append("shard0", "up", 0, 1);
  store.append("shard1", "up", 0, 1);
  store.append("shard0", "queue{worker=\"0\"}", 0, 3);
  store.append("shard0", "queue{worker=\"1\"}", 0, 4);
  store.append("shard0", "zz_other", 0, 9);

  const std::vector<std::string> eps = store.endpoints_with("up");
  ASSERT_EQ(eps.size(), 2u);
  EXPECT_EQ(eps[0], "shard0");
  EXPECT_EQ(eps[1], "shard1");
  EXPECT_TRUE(store.endpoints_with("missing").empty());

  const std::vector<std::string> queues =
      store.metrics_with_prefix("shard0", "queue{worker=");
  ASSERT_EQ(queues.size(), 2u);
  EXPECT_EQ(queues[0], "queue{worker=\"0\"}");
  EXPECT_TRUE(store.metrics_with_prefix("shard1", "queue").empty());

  const TsStoreStats stats = store.stats();
  EXPECT_EQ(stats.series, 5u);
  EXPECT_EQ(stats.samples, 5u);
  EXPECT_GT(stats.encoded_bytes, 0u);

  ASSERT_TRUE(store.latest("shard0", "zz_other").has_value());
  EXPECT_EQ(store.latest("shard0", "zz_other")->value, 9);
  EXPECT_FALSE(store.latest("shard9", "up").has_value());
}

}  // namespace
}  // namespace bbmg::monitor
