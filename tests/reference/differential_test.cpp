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
// mixed in, and the exact learner on the Fig. 2 trace and small random
// systems.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/exact_learner.hpp"
#include "core/online_learner.hpp"
#include "gen/gm_case_study.hpp"
#include "gen/random_model.hpp"
#include "gen/scenarios.hpp"
#include "reference/reference_learner.hpp"
#include "sim/simulator.hpp"

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
      std::vector<bool> observed = PeriodCandidates(period, n).executed_mask();
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

Trace gm_trace() {
  SimConfig cfg;
  cfg.seed = 7;
  return simulate_trace(gm_case_study_model(), kGmCaseStudyPeriods, cfg);
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
  run_bounded(gm_trace(), bound, bound == 64 ? 10 : kGmCaseStudyPeriods,
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
  const Trace trace = gm_trace();
  for (const std::size_t bound : {std::size_t{1}, std::size_t{4},
                                  std::size_t{16}}) {
    run_bounded(trace, bound, trace.num_periods(), "gm+quarantine",
                {2, 3, 7, 12, 13, 20});
  }
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
