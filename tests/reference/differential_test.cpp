// Differential suite: the product learners against the frozen reference
// learners (reference_learner.hpp), compared after every period — same
// frontier order, matrices (cell by cell against the frozen byte-per-cell
// matrix, with the product's cached weight against its O(n^2) sum),
// assumption sets and LearnStats fields.
//
// Inputs: the GM case-study trace and the paper's Fig. 2 trace at bounds
// {1, 2, 3, 4, 16, 64} (GM at 64 cut to its first 10 periods), simulated
// random_model systems with 2..24 tasks (bound 16 up to 16 tasks, bound 64
// up to 10, so the suite stays near 20 s), a run with quarantined periods
// mixed in, a fault-injected GM stream through RobustOnlineLearner at
// bound 1 (perfbench's served_ingest_b1 input shape), and the exact
// learner on the Fig. 2 trace and small random systems.  A bound-1 state
// decoded with two frontier members is pinned to captured values.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/exact_learner.hpp"
#include "core/online_learner.hpp"
#include "gen/gm_case_study.hpp"
#include "gen/random_model.hpp"
#include "gen/scenarios.hpp"
#include "reference/reference_learner.hpp"
#include "robust/fault_injector.hpp"
#include "robust/robust_online_learner.hpp"
#include "sim/simulator.hpp"
#include "support/gm_trace.hpp"

namespace bbmg {
namespace {

constexpr std::size_t kBounds[] = {1, 2, 3, 4, 16, 64};

void expect_same_stats(const LearnStats& ref, const LearnStats& got,
                       const std::string& where) {
  EXPECT_EQ(got.periods_processed, ref.periods_processed) << where;
  EXPECT_EQ(got.messages_processed, ref.messages_processed) << where;
  EXPECT_EQ(got.peak_hypotheses, ref.peak_hypotheses) << where;
  EXPECT_EQ(got.hypotheses_created, ref.hypotheses_created) << where;
  EXPECT_EQ(got.merges, ref.merges) << where;
  EXPECT_EQ(got.unexplained_messages, ref.unexplained_messages) << where;
  EXPECT_EQ(got.frontier_after_period, ref.frontier_after_period) << where;
  EXPECT_EQ(got.quarantined_periods, ref.quarantined_periods) << where;
}

/// The product matrix against the frozen one, cell by cell, and its cached
/// weight against the frozen O(n^2) sum.
void expect_same_matrix(const reference::Matrix& ref,
                        const DependencyMatrix& got, const std::string& where) {
  ASSERT_EQ(got.num_tasks(), ref.num_tasks()) << where;
  for (std::size_t a = 0; a < ref.num_tasks(); ++a) {
    for (std::size_t b = 0; b < ref.num_tasks(); ++b) {
      EXPECT_EQ(got.at(a, b), ref.at(a, b))
          << where << ", cell (" << a << "," << b << ")";
    }
  }
  EXPECT_EQ(got.weight(), ref.weight()) << where;
}

/// Frontier order, matrices and `used` bitsets, then every stats field
/// (wall_seconds included: neither streaming learner sets it).
void expect_same(const reference::BoundedLearner& ref,
                 const OnlineLearner& got, const std::string& where) {
  const std::vector<reference::Hypothesis>& a = ref.hypotheses();
  const std::vector<Hypothesis>& b = got.hypotheses();
  ASSERT_EQ(b.size(), a.size()) << where;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const std::string at = where + ", hypothesis " + std::to_string(i);
    expect_same_matrix(a[i].d, b[i].d, at);
    EXPECT_EQ(b[i].used, a[i].used) << at;
  }
  expect_same_stats(ref.stats(), got.stats(), where);
  EXPECT_EQ(got.stats().wall_seconds, ref.stats().wall_seconds) << where;
}

/// Feed `periods` periods of `trace` to both bounded learners, comparing
/// after each.  Periods whose index is in `quarantined` go through
/// observe_quarantined_period instead, with the period's executed tasks
/// minus one as the surviving-evidence mask.
void run_bounded(const Trace& trace, std::size_t bound, std::size_t periods,
                 const std::string& label,
                 const std::vector<std::size_t>& quarantined = {}) {
  const std::size_t n = trace.num_tasks();
  reference::BoundedLearner ref(n, bound);
  OnlineConfig config;
  config.bound = bound;
  OnlineLearner got(n, config);
  for (std::size_t i = 0; i < periods && i < trace.num_periods(); ++i) {
    const Period& period = trace.periods()[i];
    const std::string where =
        label + " bound " + std::to_string(bound) + " period " +
        std::to_string(i);
    if (std::find(quarantined.begin(), quarantined.end(), i) !=
        quarantined.end()) {
      std::vector<bool> observed = reference::Candidates(period, n).executed;
      observed[i % n] = false;
      ref.observe_quarantined_period(observed);
      got.observe_quarantined_period(observed);
    } else {
      ref.observe_period(period);
      got.observe_period(period);
    }
    expect_same(ref, got, where);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

Trace random_trace(std::size_t num_tasks, std::size_t periods) {
  RandomModelParams params;
  params.num_tasks = num_tasks;
  params.num_layers = std::min<std::size_t>(4, num_tasks);
  params.seed = 1000 + num_tasks;
  SimConfig cfg;
  cfg.seed = 2000 + num_tasks;
  return simulate_trace(random_model(params), periods, cfg);
}

class GmDifferential : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GmDifferential, BoundedLearnerMatchesReferenceEveryPeriod) {
  const std::size_t bound = GetParam();
  run_bounded(gm_trace(7, kGmCaseStudyPeriods), bound, bound == 64 ? 10 : kGmCaseStudyPeriods,
              "gm");
}

INSTANTIATE_TEST_SUITE_P(Bounds, GmDifferential, ::testing::ValuesIn(kBounds));

TEST(PaperExampleDifferential, BoundedLearnerMatchesReferenceEveryPeriod) {
  const Trace trace = paper_example_trace();
  for (const std::size_t bound : kBounds) {
    run_bounded(trace, bound, trace.num_periods(), "fig2");
  }
}

class RandomModelDifferential : public ::testing::TestWithParam<std::size_t> {
};

TEST_P(RandomModelDifferential, BoundedLearnerMatchesReferenceEveryPeriod) {
  const std::size_t n = GetParam();
  const Trace trace = random_trace(n, 8);
  for (const std::size_t bound : kBounds) {
    // A child costs ~bound hypothesis compares; the large bounds run on the
    // smaller systems only, which keeps the suite near 20 s.
    if (n > (bound >= 64 ? 10 : bound >= 16 ? 16 : 24)) continue;
    run_bounded(trace, bound, trace.num_periods(),
                "random n=" + std::to_string(n));
  }
}

INSTANTIATE_TEST_SUITE_P(Tasks, RandomModelDifferential,
                         ::testing::Range<std::size_t>(2, 25));

TEST(QuarantineDifferential, QuarantinedPeriodsMixedIn) {
  const Trace trace = gm_trace(7, kGmCaseStudyPeriods);
  for (const std::size_t bound : {std::size_t{1}, std::size_t{4},
                                  std::size_t{16}}) {
    run_bounded(trace, bound, trace.num_periods(), "gm+quarantine",
                {2, 3, 7, 12, 13, 20});
  }
}

/// perfbench's served_ingest_b1 input shape: GM traces corrupted at a 1%
/// fault rate, streamed through RobustOnlineLearner at bound 1.  The
/// reference learner is fed what the sanitizer made of each raw period:
/// the repaired period when the robust learner learned from it, the
/// observed-task mask when it quarantined it.
TEST(RobustIngestDifferential, FaultInjectedGmStreamAtBound1) {
  const std::vector<std::string> names = gm_trace(1, 1).task_names();
  RobustConfig config;
  config.online.bound = 1;
  RobustOnlineLearner got(names, config);
  const TraceSanitizer sanitizer(names, config.sanitize);
  reference::BoundedLearner ref(names.size(), 1);
  for (std::uint64_t chunk = 0; chunk < 8; ++chunk) {
    const Trace clean = gm_trace(100 + chunk, kGmCaseStudyPeriods);
    FaultInjector injector(FaultSpec::uniform(0.01, 500 + chunk));
    for (const std::vector<Event>& events : injector.corrupt(clean).periods) {
      const std::string where =
          "ingest period " + std::to_string(got.periods_seen());
      const SanitizedPeriod sp =
          sanitizer.sanitize_period(events, got.periods_seen());
      if (got.observe_raw_period(events)) {
        ref.observe_period(*sp.period);
      } else {
        ref.observe_quarantined_period(sp.observed_tasks);
      }
      expect_same(ref, got.learner(), where);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  EXPECT_GT(got.repairs(), 0u);
  EXPECT_GT(got.periods_quarantined(), 0u);
}

/// A bound-1 learner decoded with two frontier members: a bound-2 state
/// with its bound field patched to 1.  Its next period merges the two
/// members' children in the bounded list; the frontier and counts after it
/// were captured from the list path before bound 1 had a path of its own.
TEST(DecodedBound1State, TwoMembersTakeTheListPath) {
  const Trace trace = random_trace(12, 8);
  OnlineLearner b2(trace.num_tasks(), OnlineConfig{2});
  b2.observe_period(trace.periods()[0]);
  ASSERT_EQ(b2.hypotheses().size(), 2u);
  std::vector<std::uint8_t> bytes;
  b2.encode_state(bytes);
  bytes[4] = 1;  // the u32 bound, little-endian, after the u32 task count
  ByteReader r(bytes.data(), bytes.size());
  OnlineLearner got = OnlineLearner::decode_state(r);
  ASSERT_EQ(got.hypotheses().size(), 2u);

  got.observe_period(trace.periods()[1]);
  ASSERT_EQ(got.hypotheses().size(), 1u);
  const Hypothesis& h = got.hypotheses().front();
  EXPECT_EQ(h.d.weight(), 86u);
  EXPECT_EQ(h.hash(), 18312777423616755355ull);
  const LearnStats& s = got.stats();
  EXPECT_EQ(s.messages_processed, 18u);
  EXPECT_EQ(s.hypotheses_created, 136u);
  EXPECT_EQ(s.merges, 113u);
  EXPECT_EQ(s.unexplained_messages, 3u);
  EXPECT_EQ(s.peak_hypotheses, 2u);
  EXPECT_EQ(s.frontier_after_period, (std::vector<std::size_t>{2, 1}));
}

/// learn_exact only returns whole-trace results, so it is re-run on every
/// prefix and compared with the reference learner fed period by period.
/// Both must throw the same error at the same period when the frontier
/// outgrows kMaxFrontier (the random systems above five tasks do).
void run_exact(const Trace& trace, const std::string& label) {
  constexpr std::size_t kMaxFrontier = 5000;
  ExactConfig config;
  config.max_frontier = kMaxFrontier;
  reference::ExactLearner ref(trace.num_tasks(), kMaxFrontier);
  Trace prefix(trace.task_names());
  for (std::size_t i = 0; i < trace.num_periods(); ++i) {
    const std::string where = label + " period " + std::to_string(i);
    prefix.add_period(trace.periods()[i]);
    std::string ref_error;
    try {
      ref.observe_period(trace.periods()[i]);
    } catch (const Error& e) {
      ref_error = e.what();
    }
    std::string got_error;
    LearnResult got;
    try {
      got = learn_exact(prefix, config);
    } catch (const Error& e) {
      got_error = e.what();
    }
    ASSERT_EQ(got_error, ref_error) << where;
    if (!ref_error.empty()) return;
    const std::vector<reference::Matrix> want = ref.matrices();
    ASSERT_EQ(got.hypotheses.size(), want.size()) << where;
    for (std::size_t h = 0; h < want.size(); ++h) {
      expect_same_matrix(want[h], got.hypotheses[h],
                         where + ", hypothesis " + std::to_string(h));
    }
    expect_same_stats(ref.stats(), got.stats, where);
  }
}

TEST(ExactDifferential, PaperExampleMatchesReferenceEveryPeriod) {
  run_exact(paper_example_trace(), "fig2 exact");
}

TEST(ExactDifferential, RandomModelsMatchReferenceEveryPeriod) {
  for (std::size_t n = 2; n <= 8; ++n) {
    run_exact(random_trace(n, 6), "random exact n=" + std::to_string(n));
  }
}

}  // namespace
}  // namespace bbmg
