// Unit tests for the common utilities: strong ids, RNG, bitset, text,
// tables.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/bitset.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/text.hpp"
#include "common/types.hpp"

namespace bbmg {
namespace {

TEST(StrongIndex, DistinctTagsDistinctTypes) {
  static_assert(!std::is_same_v<TaskId, MsgOccId>);
  const TaskId a{3u};
  const TaskId b{3u};
  const TaskId c{4u};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_LT(a, c);
  EXPECT_EQ(a.index(), 3u);
}

TEST(StrongIndex, Hashable) {
  std::set<std::size_t> hashes;
  for (std::uint32_t i = 0; i < 100; ++i) {
    hashes.insert(std::hash<TaskId>{}(TaskId{i}));
  }
  EXPECT_GT(hashes.size(), 90u);  // overwhelmingly distinct
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
  Rng c(124);
  EXPECT_NE(Rng(123).next_u64(), c.next_u64());
}

TEST(Rng, NextBelowIsInRangeAndCoversRange) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.next_below(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_THROW((void)rng.next_below(0), Error);
}

TEST(Rng, NextIntInclusiveRange) {
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.next_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
  EXPECT_THROW((void)rng.next_int(2, 1), Error);
}

TEST(Rng, DoubleInUnitIntervalWithPlausibleMean) {
  Rng rng(7);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, BernoulliEdgeCasesAndRate) {
  Rng rng(8);
  EXPECT_FALSE(rng.next_bool(0.0));
  EXPECT_TRUE(rng.next_bool(1.0));
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.next_bool(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, NonemptySubsetMaskNeverEmptyAndInRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t m = rng.nonempty_subset_mask(5);
    EXPECT_NE(m, 0u);
    EXPECT_LT(m, 32u);
  }
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(10);
  Rng b = a.split();
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(11);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(DynamicBitset, SetTestResetCount) {
  DynamicBitset b(130);
  EXPECT_EQ(b.size(), 130u);
  EXPECT_FALSE(b.any());
  b.set(0);
  b.set(64);
  b.set(129);
  EXPECT_TRUE(b.test(64));
  EXPECT_FALSE(b.test(63));
  EXPECT_EQ(b.count(), 3u);
  b.reset(64);
  EXPECT_EQ(b.count(), 2u);
  b.clear();
  EXPECT_FALSE(b.any());
}

TEST(DynamicBitset, UniteIntersectSubset) {
  DynamicBitset a(100);
  DynamicBitset b(100);
  a.set(3);
  a.set(70);
  b.set(70);
  b.set(99);
  EXPECT_TRUE(DynamicBitset(100).is_subset_of(a));
  EXPECT_FALSE(a.is_subset_of(b));
  DynamicBitset u = a;
  u.unite(b);
  EXPECT_EQ(u.count(), 3u);
  EXPECT_TRUE(a.is_subset_of(u));
  EXPECT_TRUE(b.is_subset_of(u));
  DynamicBitset i = a;
  i.intersect(b);
  EXPECT_EQ(i.count(), 1u);
  EXPECT_TRUE(i.test(70));
}

TEST(DynamicBitset, EqualityAndHash) {
  DynamicBitset a(80);
  DynamicBitset b(80);
  a.set(17);
  b.set(17);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash_mix(1), b.hash_mix(1));
  b.set(18);
  EXPECT_NE(a, b);
  EXPECT_NE(a.hash_mix(1), b.hash_mix(1));
}

TEST(Text, SplitPreservesEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(Text, SplitWsCollapsesRuns) {
  const auto parts = split_ws("  foo \t bar\nbaz  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "foo");
  EXPECT_EQ(parts[2], "baz");
  EXPECT_TRUE(split_ws("   ").empty());
}

TEST(Text, TrimAndJoin) {
  EXPECT_EQ(trim("  x y  "), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
}

TEST(Text, NumberFormattingAndParsing) {
  EXPECT_EQ(format_double(1.23456, 3), "1.235");
  EXPECT_EQ(format_double(2.0, 0), "2");
  std::uint64_t u = 0;
  EXPECT_TRUE(parse_u64("18446744073709551615", u));
  EXPECT_EQ(u, UINT64_MAX);
  EXPECT_FALSE(parse_u64("12x", u));
  EXPECT_FALSE(parse_u64("", u));
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"Bound", "Run time (sec)"});
  t.add_row({"1", "0.220"});
  t.add_row({"150", "19.048"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| Bound"), std::string::npos);
  EXPECT_NE(s.find("19.048"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

}  // namespace
}  // namespace bbmg
