// Streaming learner: per-period equivalence with the batch API, snapshot
// semantics, convergence monitoring.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/heuristic_learner.hpp"
#include "core/online_learner.hpp"
#include "gen/gm_case_study.hpp"
#include "gen/random_model.hpp"
#include "gen/scenarios.hpp"
#include "sim/simulator.hpp"

namespace bbmg {
namespace {

TEST(OnlineLearner, ReproducesBatchResultExactly) {
  SimConfig cfg;
  cfg.seed = 7;
  const Trace trace = simulate_trace(gm_case_study_model(), 10, cfg);
  for (std::size_t bound : {1, 4, 16}) {
    OnlineConfig oc;
    oc.bound = bound;
    OnlineLearner online(trace.num_tasks(), oc);
    for (const auto& p : trace.periods()) online.observe_period(p);
    const LearnResult batch = learn_heuristic(trace, bound);
    const LearnResult streamed = online.snapshot();
    ASSERT_EQ(streamed.hypotheses.size(), batch.hypotheses.size());
    for (std::size_t i = 0; i < batch.hypotheses.size(); ++i) {
      EXPECT_EQ(streamed.hypotheses[i], batch.hypotheses[i]);
    }
    EXPECT_EQ(streamed.stats.merges, batch.stats.merges);
    EXPECT_EQ(streamed.stats.messages_processed,
              batch.stats.messages_processed);
  }
}

TEST(OnlineLearner, SnapshotAfterEachPeriodIsUsable) {
  const Trace trace = paper_example_trace();
  OnlineConfig oc;
  oc.bound = 64;  // above the peak frontier: no merges, exact-equivalent
  OnlineLearner learner(trace.num_tasks(), oc);
  std::vector<std::size_t> sizes;
  for (const auto& p : trace.periods()) {
    learner.observe_period(p);
    const LearnResult snap = learner.snapshot();
    EXPECT_FALSE(snap.hypotheses.empty());
    sizes.push_back(snap.hypotheses.size());
  }
  // The paper's §3.3 numbers: 3 after period 1, 5 after period 3.
  EXPECT_EQ(sizes.front(), 3u);
  EXPECT_EQ(sizes.back(), 5u);
}

TEST(OnlineLearner, ConvergenceObservableMidStream) {
  // A deterministic chain converges after the first period and stays
  // converged; the consumer can stop tracing early.
  SystemModel m;
  TaskSpec a;
  a.name = "a";
  a.activation = ActivationPolicy::Source;
  const TaskId ia = m.add_task(std::move(a));
  TaskSpec b;
  b.name = "b";
  b.activation = ActivationPolicy::AnyInput;
  const TaskId ib = m.add_task(std::move(b));
  m.add_edge({ia, ib, 1, 8, 1.0});
  m.validate();
  const Trace trace = idealized_trace(m, 5, 1);

  OnlineConfig oc;
  OnlineLearner learner(2, oc);
  for (const auto& p : trace.periods()) {
    learner.observe_period(p);
    EXPECT_TRUE(learner.converged());
  }
}

TEST(OnlineLearner, StatsAccumulateAcrossPeriods) {
  const Trace trace = paper_example_trace();
  OnlineConfig oc;
  OnlineLearner learner(4, oc);
  learner.observe_period(trace.periods()[0]);
  EXPECT_EQ(learner.stats().periods_processed, 1u);
  EXPECT_EQ(learner.stats().messages_processed, 2u);
  learner.observe_period(trace.periods()[1]);
  EXPECT_EQ(learner.stats().periods_processed, 2u);
  EXPECT_EQ(learner.stats().messages_processed, 4u);
}

TEST(OnlineLearner, RejectsBadConfig) {
  OnlineConfig zero;
  zero.bound = 0;
  EXPECT_THROW(OnlineLearner(3, zero), Error);
  OnlineConfig ok;
  EXPECT_THROW(OnlineLearner(0, ok), Error);
}

TEST(OnlineLearner, EncodedStateMatchesGoldenBytes) {
  // A 4-task random system at bound 4: one clean period leaves three
  // hypotheses, then one quarantined period.  The bytes pin the durable
  // state layout (history, matrix cells, bitsets, stats) so a change to
  // how matrices are stored in memory cannot move what snapshots hold.
  RandomModelParams params;
  params.num_tasks = 4;
  params.num_layers = 4;
  params.seed = 1004;
  SimConfig cfg;
  cfg.seed = 2004;
  const Trace trace = simulate_trace(random_model(params), 1, cfg);
  OnlineConfig config;
  config.bound = 4;
  OnlineLearner learner(trace.num_tasks(), config);
  learner.observe_period(trace.periods()[0]);
  learner.observe_quarantined_period({true, true, false, true});
  ASSERT_EQ(learner.hypotheses().size(), 3u);

  std::vector<std::uint8_t> bytes;
  learner.encode_state(bytes);
  std::string hex;
  for (const std::uint8_t b : bytes) {
    char buf[3];
    std::snprintf(buf, sizeof buf, "%02x", b);
    hex += buf;
  }
  const std::string golden =
      "0400000004000000000001000000010000000000000001000300000000010401"
      "0200040002020001020005001000000001000000000000000000000000000401"
      "0000040102020001020205001000000001000000000000000000000000010001"
      "0200040100020001020205001000000001000000000000000000000001000000"
      "0000000003000000000000000400000000000000130000000000000008000000"
      "0000000000000000000000000100000000000000000000000000000001000000"
      "03000000";
  EXPECT_EQ(hex, golden);
}

}  // namespace
}  // namespace bbmg
