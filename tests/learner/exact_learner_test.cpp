// Exact-learner specifics: failure modes, dedup, dominance pruning,
// instrumentation.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/exact_learner.hpp"
#include "gen/random_model.hpp"
#include "gen/scenarios.hpp"

namespace bbmg {
namespace {

TEST(ExactLearner, ThrowsWhenAMessageHasNoExplanation) {
  // A message rising before any task has finished cannot have a sender:
  // the hypothesis set empties, which the paper interprets as "the
  // instances contain errors or the language is not expressive enough".
  TraceBuilder b({"a", "b"});
  b.begin_period();
  b.add_event(Event::task_start(0, TaskId{0u}));
  b.add_event(Event::msg_rise(1, 1));
  b.add_event(Event::msg_fall(2, 1));
  b.add_event(Event::task_end(10, TaskId{0u}));
  b.add_event(Event::task_start(11, TaskId{1u}));
  b.add_event(Event::task_end(20, TaskId{1u}));
  b.end_period();
  const Trace t = b.take();
  EXPECT_THROW((void)learn_exact(t), Error);
}

TEST(ExactLearner, ThrowsWhenPairsRunOut) {
  // Two messages between two tasks in one period: only one ordered pair
  // is timing-feasible ((a,b) for both), and condition 3 allows it once.
  TraceBuilder b({"a", "b"});
  b.begin_period();
  b.add_event(Event::task_start(0, TaskId{0u}));
  b.add_event(Event::task_end(10, TaskId{0u}));
  b.add_event(Event::msg_rise(11, 1));
  b.add_event(Event::msg_fall(12, 1));
  b.add_event(Event::msg_rise(13, 2));
  b.add_event(Event::msg_fall(14, 2));
  b.add_event(Event::task_start(20, TaskId{1u}));
  b.add_event(Event::task_end(30, TaskId{1u}));
  b.end_period();
  const Trace t = b.take();
  EXPECT_THROW((void)learn_exact(t), Error);
}

TEST(ExactLearner, FrontierCapThrows) {
  ExactConfig cfg;
  cfg.max_frontier = 2;
  EXPECT_THROW((void)learn_exact(paper_example_trace(), cfg), Error);
}

TEST(ExactLearner, StatsReflectTheRun) {
  const LearnResult r = learn_exact(paper_example_trace());
  EXPECT_EQ(r.stats.periods_processed, 3u);
  EXPECT_EQ(r.stats.messages_processed, 8u);
  ASSERT_EQ(r.stats.frontier_after_period.size(), 3u);
  // The paper's §3.3 numbers: 3 hypotheses after period 1, 5 at the end.
  EXPECT_EQ(r.stats.frontier_after_period[0], 3u);
  EXPECT_EQ(r.stats.frontier_after_period[2], 5u);
  EXPECT_GE(r.stats.peak_hypotheses, 5u);
}

TEST(ExactLearner, SingleTaskTraceLearnsNothing) {
  TraceBuilder b({"solo"});
  b.begin_period();
  b.add_event(Event::task_start(0, TaskId{0u}));
  b.add_event(Event::task_end(10, TaskId{0u}));
  b.end_period();
  const Trace t = b.take();
  const LearnResult r = learn_exact(t);
  ASSERT_EQ(r.hypotheses.size(), 1u);
  EXPECT_EQ(r.hypotheses.front(), DependencyMatrix(1));
}

TEST(ExactLearner, ResultSortedByWeight) {
  const LearnResult r = learn_exact(paper_example_trace());
  for (std::size_t i = 1; i < r.hypotheses.size(); ++i) {
    EXPECT_LE(r.hypotheses[i - 1].weight(), r.hypotheses[i].weight());
  }
}

TEST(ExactLearner, RepeatedIdenticalPeriodsConverge) {
  // A deterministic single-path model: every period looks the same, and
  // after the first period the set stays fixed.
  TraceBuilder b({"a", "b"});
  for (int p = 0; p < 4; ++p) {
    const TimeNs base = static_cast<TimeNs>(p) * 1000;
    b.begin_period();
    b.add_event(Event::task_start(base + 0, TaskId{0u}));
    b.add_event(Event::task_end(base + 10, TaskId{0u}));
    b.add_event(Event::msg_rise(base + 11, 1));
    b.add_event(Event::msg_fall(base + 12, 1));
    b.add_event(Event::task_start(base + 13, TaskId{1u}));
    b.add_event(Event::task_end(base + 20, TaskId{1u}));
    b.end_period();
  }
  const Trace t = b.take();
  const LearnResult r = learn_exact(t);
  ASSERT_TRUE(r.converged());
  DependencyMatrix expected(2);
  expected.set(0, 1, DepValue::Forward);
  expected.set(1, 0, DepValue::Backward);
  EXPECT_EQ(r.hypotheses.front(), expected);
  for (std::size_t size : r.stats.frontier_after_period) {
    EXPECT_EQ(size, 1u);
  }
}

// Dominance pruning must not change the result, only the peak frontier.
class DominancePruning : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DominancePruning, ResultsIdenticalWithAndWithout) {
  RandomModelParams params;
  params.num_tasks = 5;
  params.num_layers = 3;
  params.extra_edge_density = 0.25;
  params.seed = GetParam();
  const Trace trace =
      idealized_trace(random_model(params), 6, GetParam() * 7 + 3);

  ExactConfig plain;
  plain.max_frontier = 100000;
  ExactConfig pruned = plain;
  pruned.dominance_pruning = true;

  LearnResult a;
  LearnResult b;
  try {
    a = learn_exact(trace, plain);
    b = learn_exact(trace, pruned);
  } catch (const Error&) {
    GTEST_SKIP() << "frontier exploded for this seed";
  }
  ASSERT_EQ(a.hypotheses.size(), b.hypotheses.size());
  for (const auto& h : a.hypotheses) {
    bool found = false;
    for (const auto& x : b.hypotheses) found |= (x == h);
    EXPECT_TRUE(found);
  }
  // Pruning can only shrink the peak frontier.
  EXPECT_LE(b.stats.peak_hypotheses, a.stats.peak_hypotheses);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DominancePruning,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(DominancePruning, PaperExampleUnchanged) {
  ExactConfig pruned;
  pruned.dominance_pruning = true;
  const LearnResult r = learn_exact(paper_example_trace(), pruned);
  EXPECT_EQ(r.hypotheses.size(), 5u);
}

}  // namespace
}  // namespace bbmg
