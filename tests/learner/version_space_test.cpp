// Candidate elimination with negative examples (the paper's named
// extension): boundary construction, collapse, admission queries.
#include <gtest/gtest.h>

#include "core/matching.hpp"
#include "core/version_space.hpp"
#include "gen/scenarios.hpp"

namespace bbmg {
namespace {

constexpr TaskId A{0u};
constexpr TaskId B{1u};

/// One period: a runs, message, b runs.
void chain_period(TraceBuilder& builder, TimeNs base, CanId id) {
  builder.begin_period();
  builder.add_event(Event::task_start(base, A));
  builder.add_event(Event::task_end(base + 10, A));
  builder.add_event(Event::msg_rise(base + 11, id));
  builder.add_event(Event::msg_fall(base + 12, id));
  builder.add_event(Event::task_start(base + 13, B));
  builder.add_event(Event::task_end(base + 20, B));
  builder.end_period();
}

/// One period: only a runs, no messages.
void solo_period(TraceBuilder& builder, TimeNs base) {
  builder.begin_period();
  builder.add_event(Event::task_start(base, A));
  builder.add_event(Event::task_end(base + 10, A));
  builder.end_period();
}

Trace chain_trace(int periods) {
  TraceBuilder builder({"a", "b"});
  for (int p = 0; p < periods; ++p) {
    chain_period(builder, static_cast<TimeNs>(p) * 1000, 1);
  }
  return builder.take();
}

TEST(VersionSpace, NoNegativesLeavesTopAsGeneralBoundary) {
  const Trace pos = chain_trace(2);
  const Trace neg({"a", "b"});
  const VersionSpaceResult vs = learn_version_space(pos, neg);
  ASSERT_EQ(vs.general.size(), 1u);
  EXPECT_EQ(vs.general.front(), DependencyMatrix::top(2));
  ASSERT_FALSE(vs.specific.empty());
  EXPECT_FALSE(vs.collapsed());
  // The specific boundary is the exact learner's: a -> b.
  DependencyMatrix expected(2);
  expected.set_pair(0, 1, DepValue::Forward);
  EXPECT_EQ(vs.specific.front(), expected);
}

TEST(VersionSpace, NegativeSpecializesGeneralBoundary) {
  // Positives: a -> b chains.  Negative: a runs alone with no message —
  // the forbidden behaviour is "a without b".  The general boundary must
  // reject it, i.e. require b whenever a runs.
  const Trace pos = chain_trace(2);
  TraceBuilder nb({"a", "b"});
  solo_period(nb, 0);
  const Trace neg = nb.take();

  const VersionSpaceResult vs = learn_version_space(pos, neg);
  ASSERT_FALSE(vs.collapsed());
  for (const auto& g : vs.general) {
    EXPECT_NE(g, DependencyMatrix::top(2));
    // Every general member now rejects the negative...
    const PeriodCandidates pc(neg.periods()[0], 2);
    EXPECT_FALSE(matches_period(g, pc));
    // ...while still matching the positives.
    EXPECT_TRUE(matches_trace(g, pos));
  }
  // The version space still admits the learned specific hypothesis.
  EXPECT_TRUE(vs.admits(vs.specific.front()));
  // But no longer the fully pessimistic model.
  EXPECT_FALSE(vs.admits(DependencyMatrix::top(2)));
}

TEST(VersionSpace, BoundariesAreConsistentAntichains) {
  const Trace pos = chain_trace(2);
  TraceBuilder nb({"a", "b"});
  solo_period(nb, 0);
  const Trace neg = nb.take();
  const VersionSpaceResult vs = learn_version_space(pos, neg);
  for (const auto& s : vs.specific) {
    bool below_some_g = false;
    for (const auto& g : vs.general) below_some_g |= s.leq(g);
    EXPECT_TRUE(below_some_g);
  }
  for (std::size_t i = 0; i < vs.general.size(); ++i) {
    for (std::size_t j = 0; j < vs.general.size(); ++j) {
      if (i == j) continue;
      EXPECT_FALSE(vs.general[i].leq(vs.general[j]) &&
                   vs.general[i] != vs.general[j]);
    }
  }
}

TEST(VersionSpace, CollapsesWhenNegativeEqualsAPositive) {
  // The same period appears as positive and negative: no hypothesis can
  // match and reject it simultaneously -> the space collapses.
  const Trace pos = chain_trace(1);
  const Trace neg = chain_trace(1);
  const VersionSpaceResult vs = learn_version_space(pos, neg);
  EXPECT_TRUE(vs.collapsed());
}

TEST(VersionSpace, AdmitsIsBoundedByBothSides) {
  const Trace pos = chain_trace(2);
  TraceBuilder nb({"a", "b"});
  solo_period(nb, 0);
  const Trace neg = nb.take();
  const VersionSpaceResult vs = learn_version_space(pos, neg);
  ASSERT_FALSE(vs.collapsed());
  // Below the specific boundary: not admitted.
  EXPECT_FALSE(vs.admits(DependencyMatrix(2)));
  // The specific member itself: admitted.
  EXPECT_TRUE(vs.admits(vs.specific.front()));
}

TEST(VersionSpace, PaperExampleWithFabricatedNegative) {
  // Positives: the paper's Fig. 2 trace.  Negative: t1 runs alone —
  // fabricating the requirement that t1 must always trigger someone.
  const Trace pos = paper_example_trace();
  TraceBuilder nb({"t1", "t2", "t3", "t4"});
  nb.begin_period();
  nb.add_event(Event::task_start(0, TaskId{0u}));
  nb.add_event(Event::task_end(10, TaskId{0u}));
  nb.end_period();
  const Trace neg = nb.take();
  const VersionSpaceResult vs = learn_version_space(pos, neg);
  ASSERT_FALSE(vs.collapsed());
  // Four of the five §3.3 survivors carry d(t1,t4) = -> and reject the
  // negative; d85 (the one with d(t1,t4) = ||, no hard claim from t1)
  // matches the forbidden period and is eliminated.
  EXPECT_EQ(vs.specific.size(), 4u);
  for (const auto& s : vs.specific) {
    EXPECT_EQ(s.at(0, 3), DepValue::Forward);
  }
  for (const auto& g : vs.general) {
    EXPECT_TRUE(matches_trace(g, pos));
  }
  // The general boundary examples/negative_examples prints: one member,
  // the top with only d(t1,t4) lowered from <->? to <->.
  DependencyMatrix general = DependencyMatrix::top(4);
  general.set(0, 3, DepValue::Mutual);
  ASSERT_EQ(vs.general.size(), 1u);
  EXPECT_EQ(vs.general.front(), general);
}

}  // namespace
}  // namespace bbmg
