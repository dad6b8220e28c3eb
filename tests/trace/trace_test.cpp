// Trace structures, the builder's well-formedness enforcement, and
// validation rules (paper §2.1: a task executes at most once per period;
// one shared bus carries at most one message at a time).
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "trace/trace.hpp"

namespace bbmg {
namespace {

constexpr TaskId T0{0u};
constexpr TaskId T1{1u};

TEST(Period, SortsExecutionsAndMessages) {
  Period p({{T1, 50, 60}, {T0, 10, 20}},
           {{40, 45, 2}, {25, 30, 1}});
  EXPECT_EQ(p.executions()[0].task, T0);
  EXPECT_EQ(p.executions()[1].task, T1);
  EXPECT_EQ(p.messages()[0].can_id, 1u);
  EXPECT_EQ(p.messages()[1].can_id, 2u);
}

TEST(Period, ExecutedAndExecutionOf) {
  Period p({{T0, 10, 20}}, {});
  EXPECT_NE(p.execution_of(T0), nullptr);
  EXPECT_EQ(p.execution_of(T1), nullptr);
  ASSERT_NE(p.execution_of(T0), nullptr);
  EXPECT_EQ(p.execution_of(T0)->end, 20u);
  EXPECT_EQ(p.execution_of(T1), nullptr);
}

TEST(Period, ToEventsIsTimeOrdered) {
  Period p({{T0, 10, 20}, {T1, 40, 50}}, {{25, 30, 7}});
  const auto events = p.to_events();
  ASSERT_EQ(events.size(), 6u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].time, events[i].time);
  }
  EXPECT_EQ(events[2].kind, EventKind::MsgRise);
  EXPECT_EQ(events[2].can_id, 7u);
}

TEST(TraceBuilder, BuildsWellFormedTrace) {
  TraceBuilder b({"a", "b"});
  b.begin_period();
  b.add_event(Event::task_start(0, T0));
  b.add_event(Event::task_end(10, T0));
  b.add_event(Event::msg_rise(12, 5));
  b.add_event(Event::msg_fall(14, 5));
  b.add_event(Event::task_start(15, T1));
  b.add_event(Event::task_end(20, T1));
  b.end_period();
  const Trace t = b.take();
  EXPECT_EQ(t.num_periods(), 1u);
  EXPECT_EQ(t.total_messages(), 1u);
  EXPECT_EQ(t.total_executions(), 2u);
  EXPECT_EQ(t.total_event_pairs(), 3u);
  EXPECT_EQ(t.task_by_name("b"), T1);
  EXPECT_THROW((void)t.task_by_name("zz"), Error);
}

TEST(TraceBuilder, RejectsDoubleExecution) {
  TraceBuilder b({"a"});
  b.begin_period();
  b.add_event(Event::task_start(0, T0));
  b.add_event(Event::task_end(5, T0));
  EXPECT_THROW(b.add_event(Event::task_start(6, T0)), Error);
}

TEST(TraceBuilder, RejectsEndWithoutStart) {
  TraceBuilder b({"a"});
  b.begin_period();
  EXPECT_THROW(b.add_event(Event::task_end(5, T0)), Error);
}

TEST(TraceBuilder, RejectsOverlappingBusMessages) {
  TraceBuilder b({"a"});
  b.begin_period();
  b.add_event(Event::task_start(0, T0));
  b.add_event(Event::task_end(1, T0));
  b.add_event(Event::msg_rise(2, 1));
  EXPECT_THROW(b.add_event(Event::msg_rise(3, 2)), Error);
}

TEST(TraceBuilder, RejectsMismatchedFallId) {
  TraceBuilder b({"a"});
  b.begin_period();
  b.add_event(Event::task_start(0, T0));
  b.add_event(Event::task_end(1, T0));
  b.add_event(Event::msg_rise(2, 1));
  EXPECT_THROW(b.add_event(Event::msg_fall(3, 9)), Error);
}

TEST(TraceBuilder, RejectsDanglingActivityAtPeriodEnd) {
  {
    TraceBuilder b({"a"});
    b.begin_period();
    b.add_event(Event::task_start(0, T0));
    EXPECT_THROW(b.end_period(), Error);
  }
  {
    TraceBuilder b({"a"});
    b.begin_period();
    b.add_event(Event::task_start(0, T0));
    b.add_event(Event::task_end(1, T0));
    b.add_event(Event::msg_rise(2, 1));
    EXPECT_THROW(b.end_period(), Error);
  }
}

TEST(TraceBuilder, RejectsEventsOutsidePeriods) {
  TraceBuilder b({"a"});
  EXPECT_THROW(b.add_event(Event::task_start(0, T0)), Error);
  b.begin_period();
  EXPECT_THROW(b.begin_period(), Error);
}

TEST(ValidateTrace, AcceptsGoodTrace) {
  Trace t({"a", "b"});
  t.add_period(Period({{T0, 0, 5}, {T1, 10, 15}}, {{6, 8, 1}}));
  EXPECT_NO_THROW(validate_trace(t));
}

TEST(ValidateTrace, RejectsEmptyPeriod) {
  Trace t({"a"});
  t.add_period(Period({}, {}));
  EXPECT_THROW(validate_trace(t), Error);
}

TEST(ValidateTrace, RejectsZeroLengthExecution) {
  Trace t({"a"});
  t.add_period(Period({{T0, 5, 5}}, {}));
  EXPECT_THROW(validate_trace(t), Error);
}

TEST(ValidateTrace, RejectsDuplicateTaskInPeriod) {
  Trace t({"a", "b"});
  t.add_period(Period({{T0, 0, 5}, {T0, 6, 9}}, {}));
  EXPECT_THROW(validate_trace(t), Error);
}

TEST(ValidateTrace, RejectsOutOfRangeTask) {
  Trace t({"a"});
  t.add_period(Period({{TaskId{5u}, 0, 5}}, {}));
  EXPECT_THROW(validate_trace(t), Error);
}

TEST(ValidateTrace, RejectsOverlappingMessages) {
  Trace t({"a"});
  t.add_period(Period({{T0, 0, 5}}, {{6, 10, 1}, {8, 12, 2}}));
  EXPECT_THROW(validate_trace(t), Error);
}

TEST(TraceBuilder, ResetRecoversAfterMidPeriodThrow) {
  TraceBuilder b({"a", "b"});
  b.begin_period();
  b.add_event(Event::task_start(0, T0));
  b.add_event(Event::task_end(5, T0));
  b.end_period();  // period 0 completes normally

  b.begin_period();
  b.add_event(Event::task_start(10, T0));
  EXPECT_THROW(b.add_event(Event::msg_fall(12, 3)), Error);  // fall w/o rise
  b.reset();  // abandon the damaged period; keep what was built

  b.begin_period();  // must not complain about the open period
  b.add_event(Event::task_start(20, T1));
  b.add_event(Event::task_end(25, T1));
  b.end_period();

  const Trace t = b.take();
  ASSERT_EQ(t.num_periods(), 2u);
  // Nothing from the abandoned period leaked into its successor.
  ASSERT_EQ(t.periods()[1].executions().size(), 1u);
  EXPECT_EQ(t.periods()[1].executions()[0].task, T1);
  EXPECT_TRUE(t.periods()[1].messages().empty());
}

TEST(TraceBuilder, ResetOutsidePeriodIsANoOp) {
  TraceBuilder b({"a"});
  b.begin_period();
  b.add_event(Event::task_start(0, T0));
  b.add_event(Event::task_end(5, T0));
  b.end_period();
  b.reset();
  EXPECT_EQ(b.take().num_periods(), 1u);
}

}  // namespace
}  // namespace bbmg
