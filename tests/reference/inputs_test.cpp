// The learners' shared per-period inputs against their frozen copies
// (reference_inputs.hpp): PeriodCandidates' flat pair array, receiver
// suffix search and ran/idle split, and CoExecutionHistory's ran x idle
// fold.  Checked period by period: every message's pairs in exact order,
// the per-message counts, the ran and idle task lists, and every history
// cell.
//
// Inputs: the GM traces the differential suite learns (seed 7 and the
// fault-injection seeds 100..107), the same traces corrupted at 1% and run
// through the sanitizer (quarantined periods fold their observed-task mask
// into both histories), and random periods built without validation: tied
// start times, messages with no receiver, and single-task periods.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/candidates.hpp"
#include "core/history.hpp"
#include "reference/reference_inputs.hpp"
#include "robust/fault_injector.hpp"
#include "robust/sanitizer.hpp"
#include "support/gm_trace.hpp"

namespace bbmg {
namespace {

void expect_same_candidates(const reference::Candidates& ref,
                            const PeriodCandidates& got,
                            const std::string& where) {
  ASSERT_EQ(got.num_messages(), ref.per_message.size()) << where;
  for (std::size_t m = 0; m < ref.per_message.size(); ++m) {
    const std::vector<CandidatePair>& want = ref.per_message[m];
    const ConstView<CandidatePair> pairs = got.candidates(m);
    ASSERT_EQ(pairs.size(), want.size()) << where << ", message " << m;
    EXPECT_EQ(pairs.empty(), want.empty()) << where << ", message " << m;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(pairs[i].sender, want[i].sender)
          << where << ", message " << m << ", pair " << i;
      EXPECT_EQ(pairs[i].receiver, want[i].receiver)
          << where << ", message " << m << ", pair " << i;
      EXPECT_EQ(pairs[i].pair_index, want[i].pair_index)
          << where << ", message " << m << ", pair " << i;
    }
  }

  std::vector<std::uint32_t> ran;
  std::vector<std::uint32_t> idle;
  for (std::uint32_t t = 0; t < ref.executed.size(); ++t) {
    (ref.executed[t] ? ran : idle).push_back(t);
  }
  EXPECT_EQ(got.num_tasks(), ref.executed.size()) << where;
  EXPECT_EQ(std::vector<std::uint32_t>(got.ran().begin(), got.ran().end()), ran)
      << where;
  EXPECT_EQ(std::vector<std::uint32_t>(got.idle().begin(), got.idle().end()),
            idle)
      << where;
}

/// Both histories, fed the same periods.
struct Histories {
  explicit Histories(std::size_t n) : got(n), ref(n) {}

  void record(const Period& period, std::size_t n, const std::string& where) {
    const reference::Candidates want(period, n);
    const PeriodCandidates pc(period, n);
    expect_same_candidates(want, pc, where);
    got.record_period(pc);
    ref.record_period(want.executed);
    EXPECT_EQ(got.cells(), ref.cells()) << where;
  }

  void record_untrusted(const std::vector<bool>& observed,
                        const std::string& where) {
    got.record_untrusted_period(observed);
    ref.record_untrusted_period(observed);
    EXPECT_EQ(got.cells(), ref.cells()) << where;
  }

  CoExecutionHistory got;
  reference::History ref;
};

TEST(InputsDifferential, GmTracesMatchFrozenInputs) {
  for (const std::uint64_t seed : {7, 100, 101, 102, 103, 104, 105, 106, 107}) {
    const Trace trace = gm_trace(seed, kGmCaseStudyPeriods);
    Histories h(trace.num_tasks());
    for (std::size_t i = 0; i < trace.num_periods(); ++i) {
      h.record(trace.periods()[i], trace.num_tasks(),
               "gm seed " + std::to_string(seed) + " period " +
                   std::to_string(i));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(InputsDifferential, SanitizedFaultInjectedPeriodsMatchFrozenInputs) {
  const std::vector<std::string> names = gm_trace(1, 1).task_names();
  const TraceSanitizer sanitizer(names, SanitizeConfig{});
  Histories h(names.size());
  std::size_t seen = 0;
  std::size_t quarantined = 0;
  for (std::uint64_t chunk = 0; chunk < 8; ++chunk) {
    const Trace clean = gm_trace(100 + chunk, kGmCaseStudyPeriods);
    FaultInjector injector(FaultSpec::uniform(0.01, 500 + chunk));
    for (const std::vector<Event>& events : injector.corrupt(clean).periods) {
      const std::string where = "ingest period " + std::to_string(seen);
      const SanitizedPeriod sp = sanitizer.sanitize_period(events, seen++);
      if (sp.quarantined()) {
        ++quarantined;
        h.record_untrusted(sp.observed_tasks, where);
      } else {
        h.record(*sp.period, names.size(), where);
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  EXPECT_GT(quarantined, 0u);
}

/// A period built straight from executions and messages, without
/// validation: starts drawn from a few values (ties), and messages that
/// may fall after every start (no receiver) or rise before every end (no
/// sender).  Each task runs at most once.
Period random_period(Rng& rng, std::size_t n, std::size_t ran) {
  std::vector<std::uint32_t> tasks(n);
  for (std::uint32_t t = 0; t < n; ++t) tasks[t] = t;
  rng.shuffle(tasks);
  std::vector<TaskExecution> execs;
  for (std::size_t i = 0; i < ran; ++i) {
    const TimeNs start = 10 * rng.next_below(6);
    execs.push_back(TaskExecution{TaskId{tasks[i]}, start,
                                  start + 1 + rng.next_below(30)});
  }
  std::vector<MessageOccurrence> msgs;
  const std::size_t num_msgs = rng.next_below(8);
  for (std::size_t i = 0; i < num_msgs; ++i) {
    const TimeNs rise = rng.next_below(90);
    msgs.push_back(MessageOccurrence{rise, rise + 1 + rng.next_below(20), 0});
  }
  return Period(std::move(execs), std::move(msgs));
}

TEST(InputsDifferential, RandomPeriodsMatchFrozenInputs) {
  Rng rng(0x5eed);
  std::size_t single_task = 0;
  std::size_t no_receiver = 0;
  std::size_t ties = 0;
  for (const std::size_t n : {1, 2, 3, 5, 8, 13, 20}) {
    Histories h(n);
    for (std::size_t i = 0; i < 200; ++i) {
      const std::size_t ran = 1 + rng.next_below(n);
      const Period period = random_period(rng, n, ran);
      single_task += ran == 1 ? 1 : 0;
      const auto& execs = period.executions();
      for (std::size_t e = 1; e < execs.size(); ++e) {
        ties += execs[e].start == execs[e - 1].start ? 1 : 0;
      }
      for (const MessageOccurrence& m : period.messages()) {
        no_receiver += m.fall > execs.back().start ? 1 : 0;
      }
      h.record(period, n,
               "n=" + std::to_string(n) + " period " + std::to_string(i));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  // The generator covers the edges the suffix search and the split meet.
  EXPECT_GT(single_task, 0u);
  EXPECT_GT(no_receiver, 0u);
  EXPECT_GT(ties, 0u);
}

}  // namespace
}  // namespace bbmg
