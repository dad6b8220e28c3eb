// DependencyMatrix keeps its weight current through every mutation; these
// tests recompute it from the cells (Definition 8: the sum of dep_distance
// over all ordered pairs) after random operation sequences, after decoding,
// and check the in-place join against lub.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "core/matrix_cells.hpp"
#include "core/online_learner.hpp"
#include "gen/gm_case_study.hpp"
#include "lattice/dependency_matrix.hpp"
#include "sim/simulator.hpp"

namespace bbmg {
namespace {

std::uint64_t summed_weight(const DependencyMatrix& m) {
  std::uint64_t w = 0;
  for (std::size_t a = 0; a < m.num_tasks(); ++a) {
    for (std::size_t b = 0; b < m.num_tasks(); ++b) {
      w += dep_distance(m.at(a, b));
    }
  }
  return w;
}

DepValue random_value(Rng& rng) {
  return kAllDepValues[rng.pick_index(kNumDepValues)];
}

DependencyMatrix random_matrix(std::size_t n, Rng& rng) {
  DependencyMatrix m(n);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      if (a != b) m.set(a, b, random_value(rng));
    }
  }
  return m;
}

TEST(WeightBookkeeping, RandomOperationSequencesKeepWeightCurrent) {
  Rng rng(2024);
  for (std::size_t n = 1; n <= 9; ++n) {
    DependencyMatrix m(n);
    ASSERT_EQ(m.weight(), summed_weight(m));
    for (int step = 0; step < 400; ++step) {
      const std::size_t a = rng.pick_index(n);
      const std::size_t b = rng.pick_index(n);
      switch (rng.pick_index(5)) {
        case 0:
          if (a != b) m.set(a, b, random_value(rng));
          break;
        case 1:
          if (a != b) m.set_pair(a, b, random_value(rng));
          break;
        case 2:
          m.join(random_matrix(n, rng));
          break;
        case 3:
          m = m.lub(random_matrix(n, rng));
          break;
        default:
          if (rng.pick_index(20) == 0) m = DependencyMatrix::top(n);
          break;
      }
      ASSERT_EQ(m.weight(), summed_weight(m)) << "n=" << n << " step " << step;
    }
  }
}

TEST(WeightBookkeeping, TopAndBottomAtEverySize) {
  for (std::size_t n = 0; n <= 6; ++n) {
    EXPECT_EQ(DependencyMatrix(n).weight(), 0u);
    const DependencyMatrix top = DependencyMatrix::top(n);
    EXPECT_EQ(top.weight(), summed_weight(top)) << n;
  }
}

TEST(WeightBookkeeping, JoinEqualsLub) {
  Rng rng(77);
  for (std::size_t n = 1; n <= 8; ++n) {
    for (int i = 0; i < 25; ++i) {
      DependencyMatrix a = random_matrix(n, rng);
      const DependencyMatrix b = random_matrix(n, rng);
      const DependencyMatrix want = a.lub(b);
      a.join(b);
      EXPECT_EQ(a, want);
      EXPECT_EQ(a.weight(), want.weight());
      EXPECT_EQ(a.weight(), summed_weight(a));
    }
  }
}

TEST(WeightBookkeeping, SelfJoinIsIdentity) {
  Rng rng(78);
  for (std::size_t n = 1; n <= 6; ++n) {
    DependencyMatrix a = random_matrix(n, rng);
    const DependencyMatrix before = a;
    a.join(a);
    EXPECT_EQ(a, before);
    EXPECT_EQ(a.weight(), before.weight());
    EXPECT_EQ(a, before.lub(before));
  }
}

TEST(WeightBookkeeping, DecodedCellsCarryTheirWeight) {
  Rng rng(79);
  for (std::size_t n = 1; n <= 7; ++n) {
    const DependencyMatrix m = random_matrix(n, rng);
    std::vector<std::uint8_t> bytes;
    append_matrix_cells(bytes, m);
    ByteReader r(bytes.data(), bytes.size());
    const DependencyMatrix got = read_matrix_cells(r, n, "test: ");
    EXPECT_TRUE(r.done());
    EXPECT_EQ(got, m);
    EXPECT_EQ(got.weight(), summed_weight(m));
  }
}

TEST(WeightBookkeeping, DecodedLearnerStateCarriesWeights) {
  SimConfig cfg;
  cfg.seed = 7;
  const Trace trace = simulate_trace(gm_case_study_model(), 6, cfg);
  OnlineConfig config;
  config.bound = 4;
  OnlineLearner learner(trace.num_tasks(), config);
  for (const Period& p : trace.periods()) learner.observe_period(p);

  std::vector<std::uint8_t> bytes;
  learner.encode_state(bytes);
  ByteReader r(bytes.data(), bytes.size());
  const OnlineLearner restored = OnlineLearner::decode_state(r);
  ASSERT_EQ(restored.hypotheses().size(), learner.hypotheses().size());
  for (std::size_t i = 0; i < restored.hypotheses().size(); ++i) {
    const DependencyMatrix& d = restored.hypotheses()[i].d;
    EXPECT_EQ(d.weight(), summed_weight(d)) << i;
    EXPECT_EQ(d.weight(), learner.hypotheses()[i].d.weight()) << i;
  }
}

}  // namespace
}  // namespace bbmg
