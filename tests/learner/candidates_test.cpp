// Candidate sender/receiver extraction (paper §3.1): the timing rules and
// the worked example's A_m sets.
#include <gtest/gtest.h>

#include "core/candidates.hpp"
#include "gen/scenarios.hpp"

namespace bbmg {
namespace {

constexpr TaskId T1{0u};
constexpr TaskId T2{1u};
constexpr TaskId T3{2u};
constexpr TaskId T4{3u};

bool has_pair(const std::vector<CandidatePair>& pairs, TaskId s, TaskId r) {
  for (const auto& p : pairs) {
    if (p.sender == s && p.receiver == r) return true;
  }
  return false;
}

TEST(Candidates, PaperPeriodOne) {
  const Trace trace = paper_example_trace();
  const PeriodCandidates pc(trace.periods()[0], 4);
  ASSERT_EQ(pc.num_messages(), 2u);
  // A_m1 = {(t1,t2),(t1,t4)}
  EXPECT_EQ(pc.candidates(0).size(), 2u);
  EXPECT_TRUE(has_pair(pc.candidates(0), T1, T2));
  EXPECT_TRUE(has_pair(pc.candidates(0), T1, T4));
  // A_m2 = {(t1,t4),(t2,t4)}
  EXPECT_EQ(pc.candidates(1).size(), 2u);
  EXPECT_TRUE(has_pair(pc.candidates(1), T1, T4));
  EXPECT_TRUE(has_pair(pc.candidates(1), T2, T4));
}

TEST(Candidates, PaperPeriodThree) {
  const Trace trace = paper_example_trace();
  const PeriodCandidates pc(trace.periods()[2], 4);
  ASSERT_EQ(pc.num_messages(), 4u);
  // m5 rises after only t1 finished; t3, t2, t4 all start after its fall.
  EXPECT_EQ(pc.candidates(0).size(), 3u);
  EXPECT_TRUE(has_pair(pc.candidates(0), T1, T3));
  EXPECT_TRUE(has_pair(pc.candidates(0), T1, T2));
  EXPECT_TRUE(has_pair(pc.candidates(0), T1, T4));
  // m6 likewise (back-to-back with m5, still before t3/t2 start).
  EXPECT_EQ(pc.candidates(1).size(), 3u);
  // m7/m8: senders {t1,t3,t2}, receiver {t4}.
  EXPECT_EQ(pc.candidates(2).size(), 3u);
  EXPECT_TRUE(has_pair(pc.candidates(2), T2, T4));
  EXPECT_TRUE(has_pair(pc.candidates(2), T3, T4));
  EXPECT_TRUE(has_pair(pc.candidates(2), T1, T4));
  EXPECT_EQ(pc.candidates(3).size(), 3u);
}

TEST(Candidates, ExecutedMaskMatchesPeriod) {
  const Trace trace = paper_example_trace();
  const PeriodCandidates p1(trace.periods()[0], 4);
  EXPECT_TRUE(p1.executed(0));
  EXPECT_TRUE(p1.executed(1));
  EXPECT_FALSE(p1.executed(2));
  EXPECT_TRUE(p1.executed(3));
  const PeriodCandidates p2(trace.periods()[1], 4);
  EXPECT_FALSE(p2.executed(1));
  EXPECT_TRUE(p2.executed(2));
}

TEST(Candidates, BoundaryTimesInclusive) {
  // Sender end == rise and receiver start == fall are both feasible.
  TraceBuilder b({"s", "r"});
  b.begin_period();
  b.add_event(Event::task_start(0, TaskId{0u}));
  b.add_event(Event::task_end(10, TaskId{0u}));
  b.add_event(Event::msg_rise(10, 1));
  b.add_event(Event::msg_fall(20, 1));
  b.add_event(Event::task_start(20, TaskId{1u}));
  b.add_event(Event::task_end(30, TaskId{1u}));
  b.end_period();
  const Trace t = b.take();
  const PeriodCandidates pc(t.periods()[0], 2);
  ASSERT_EQ(pc.candidates(0).size(), 1u);
  EXPECT_TRUE(has_pair(pc.candidates(0), TaskId{0u}, TaskId{1u}));
}

TEST(Candidates, NoSenderBeforeRiseMeansEmptySet) {
  // A message rising before any task ended has no feasible sender.
  TraceBuilder b({"a", "b"});
  b.begin_period();
  b.add_event(Event::task_start(0, TaskId{0u}));
  b.add_event(Event::msg_rise(3, 1));
  b.add_event(Event::msg_fall(5, 1));
  b.add_event(Event::task_end(10, TaskId{0u}));
  b.add_event(Event::task_start(12, TaskId{1u}));
  b.add_event(Event::task_end(20, TaskId{1u}));
  b.end_period();
  const Trace t = b.take();
  const PeriodCandidates pc(t.periods()[0], 2);
  EXPECT_TRUE(pc.candidates(0).empty());
}

TEST(Candidates, SenderNeverItsOwnReceiver) {
  // A task that both ends before the rise and starts after the fall is
  // impossible within one period, but even with crafted data s != r must
  // hold for every pair.
  const Trace trace = paper_example_trace();
  for (const auto& period : trace.periods()) {
    const PeriodCandidates pc(period, trace.num_tasks());
    for (std::size_t m = 0; m < pc.num_messages(); ++m) {
      for (const auto& p : pc.candidates(m)) {
        EXPECT_NE(p.sender, p.receiver);
        EXPECT_EQ(p.pair_index,
                  p.sender.index() * trace.num_tasks() + p.receiver.index());
      }
    }
  }
}

}  // namespace
}  // namespace bbmg
