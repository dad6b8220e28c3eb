// DependencyMatrix: the concrete dependency-function representation.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "lattice/dependency_matrix.hpp"

namespace bbmg {
namespace {

DependencyMatrix random_matrix(std::size_t n, Rng& rng) {
  DependencyMatrix m(n);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      if (a != b) m.set(a, b, kAllDepValues[rng.pick_index(kNumDepValues)]);
    }
  }
  return m;
}

TEST(DependencyMatrix, BottomHasWeightZeroAndIsLeqEverything) {
  Rng rng(99);
  const DependencyMatrix bot(5);
  EXPECT_EQ(bot.weight(), 0u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(bot.leq(random_matrix(5, rng)));
  }
}

TEST(DependencyMatrix, TopDominatesEverythingAndHasMaxWeight) {
  Rng rng(7);
  const DependencyMatrix top = DependencyMatrix::top(5);
  EXPECT_EQ(top.weight(), 9u * 5 * 4);
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(random_matrix(5, rng).leq(top));
  }
}

TEST(DependencyMatrix, DiagonalIsFixedParallel) {
  DependencyMatrix m(3);
  EXPECT_EQ(m.at(1, 1), DepValue::Parallel);
  EXPECT_THROW(m.set(2, 2, DepValue::Forward), Error);
}

TEST(DependencyMatrix, SetPairWritesMirroredEntries) {
  DependencyMatrix m(3);
  m.set_pair(0, 2, DepValue::Forward);
  EXPECT_EQ(m.at(0, 2), DepValue::Forward);
  EXPECT_EQ(m.at(2, 0), DepValue::Backward);
  m.set_pair(1, 2, DepValue::MaybeMutual);
  EXPECT_EQ(m.at(2, 1), DepValue::MaybeMutual);
}

TEST(DependencyMatrix, OrientedEntriesAreIndependent) {
  // The learner needs d(a,b) and d(b,a) to evolve separately (paper d81).
  DependencyMatrix m(2);
  m.set(0, 1, DepValue::MaybeForward);
  m.set(1, 0, DepValue::Backward);
  EXPECT_EQ(m.at(0, 1), DepValue::MaybeForward);
  EXPECT_EQ(m.at(1, 0), DepValue::Backward);
}

TEST(DependencyMatrix, LubIsPointwiseAndAnUpperBound) {
  Rng rng(3);
  for (int i = 0; i < 30; ++i) {
    const DependencyMatrix a = random_matrix(4, rng);
    const DependencyMatrix b = random_matrix(4, rng);
    const DependencyMatrix j = a.lub(b);
    EXPECT_TRUE(a.leq(j));
    EXPECT_TRUE(b.leq(j));
    for (std::size_t x = 0; x < 4; ++x) {
      for (std::size_t y = 0; y < 4; ++y) {
        if (x != y) {
          EXPECT_EQ(j.at(x, y), dep_lub(a.at(x, y), b.at(x, y)));
        }
      }
    }
  }
}

TEST(DependencyMatrix, LeqAgreesWithLub) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    const DependencyMatrix a = random_matrix(3, rng);
    const DependencyMatrix b = random_matrix(3, rng);
    EXPECT_EQ(a.leq(b), a.lub(b) == b);
  }
}

TEST(DependencyMatrix, WeightIsSumOfDistances) {
  DependencyMatrix m(3);
  m.set(0, 1, DepValue::Forward);       // 1
  m.set(1, 0, DepValue::Backward);      // 1
  m.set(0, 2, DepValue::MaybeMutual);   // 9
  m.set(2, 1, DepValue::MaybeForward);  // 4
  EXPECT_EQ(m.weight(), 15u);
}

TEST(DependencyMatrix, WeightMonotoneInOrder) {
  Rng rng(6);
  for (int i = 0; i < 50; ++i) {
    const DependencyMatrix a = random_matrix(4, rng);
    const DependencyMatrix b = random_matrix(4, rng);
    if (a.leq(b)) {
      EXPECT_LE(a.weight(), b.weight());
    }
    EXPECT_GE(a.lub(b).weight(), std::max(a.weight(), b.weight()));
  }
}

TEST(DependencyMatrix, HashEqualityConsistency) {
  Rng rng(8);
  for (int i = 0; i < 30; ++i) {
    const DependencyMatrix a = random_matrix(4, rng);
    DependencyMatrix b = a;
    EXPECT_EQ(a.hash(), b.hash());
    EXPECT_EQ(a, b);
    b.set(0, 1, b.at(0, 1) == DepValue::Parallel ? DepValue::Forward
                                                 : DepValue::Parallel);
    EXPECT_NE(a, b);
  }
}

TEST(DependencyMatrix, SizeMismatchThrows) {
  const DependencyMatrix a(3);
  const DependencyMatrix b(4);
  EXPECT_THROW((void)a.leq(b), Error);
  EXPECT_THROW((void)a.lub(b), Error);
}

TEST(DependencyMatrix, LubAllMatchesFold) {
  Rng rng(11);
  std::vector<DependencyMatrix> ms;
  for (int i = 0; i < 5; ++i) ms.push_back(random_matrix(4, rng));
  DependencyMatrix acc = ms[0];
  for (std::size_t i = 1; i < ms.size(); ++i) acc = acc.lub(ms[i]);
  EXPECT_EQ(lub_all(ms), acc);
  EXPECT_THROW((void)lub_all({}), Error);
}

TEST(DependencyMatrix, CountValue) {
  DependencyMatrix m(3);
  m.set(0, 1, DepValue::Forward);
  m.set(1, 0, DepValue::Backward);
  EXPECT_EQ(m.count_value(DepValue::Forward), 1u);
  EXPECT_EQ(m.count_value(DepValue::Parallel), 4u);
}

TEST(DependencyMatrix, TableRenderingContainsNamesAndValues) {
  DependencyMatrix m(2);
  m.set_pair(0, 1, DepValue::Forward);
  const std::string table = m.to_table({"alpha", "beta"});
  EXPECT_NE(table.find("alpha"), std::string::npos);
  EXPECT_NE(table.find("beta"), std::string::npos);
  EXPECT_NE(table.find("->"), std::string::npos);
  EXPECT_NE(table.find("<-"), std::string::npos);
}

}  // namespace
}  // namespace bbmg
