// Brake-by-wire scenario: structure, learnability, and the 300 ms
// deadline property from the paper's §3.4.
#include <gtest/gtest.h>

#include "analysis/dependency_graph.hpp"
#include "analysis/latency.hpp"
#include "core/heuristic_learner.hpp"
#include "core/matching.hpp"
#include "gen/brake_system.hpp"
#include "sim/simulator.hpp"

namespace bbmg {
namespace {

SimConfig brake_sim_config(std::uint64_t seed) {
  SimConfig cfg;
  cfg.seed = seed;
  cfg.period_length = 1000 * kTimeNsPerMs;
  return cfg;
}

TEST(BrakeSystem, ModelValidatesWithExpectedShape) {
  const SystemModel m = brake_system_model();
  EXPECT_EQ(m.num_tasks(), 10u);
  EXPECT_EQ(m.num_ecus(), 3u);
  EXPECT_NO_THROW(m.validate());
  // Diag is pure infrastructure.
  const TaskId diag = m.task_by_name("Diag");
  EXPECT_TRUE(m.out_edges(diag).empty());
  EXPECT_EQ(m.task(diag).broadcasts.size(), 1u);
  // The arbiter joins both control inputs and chooses actuators.
  const TaskId arb = m.task_by_name("AbsArbiter");
  EXPECT_EQ(m.task(arb).activation, ActivationPolicy::AllInputs);
  EXPECT_EQ(m.task(arb).output, OutputPolicy::NonEmptySubset);
  EXPECT_EQ(m.in_edges(arb).size(), 2u);
  EXPECT_EQ(m.out_edges(arb).size(), 2u);
}

TEST(BrakeSystem, CriticalPathFollowsDesignEdges) {
  const SystemModel m = brake_system_model();
  const auto path = brake_critical_path(m);
  ASSERT_EQ(path.size(), 5u);
  for (std::size_t k = 0; k + 1 < path.size(); ++k) {
    bool connected = false;
    for (std::size_t ei : m.out_edges(path[k])) {
      connected |= m.edges()[ei].to == path[k + 1];
    }
    EXPECT_TRUE(connected) << "gap after step " << k;
  }
}

TEST(BrakeSystem, TraceIsValidAndLearnerIsCorrect) {
  const SystemModel m = brake_system_model();
  const Trace trace = simulate_trace(m, 12, brake_sim_config(5));
  EXPECT_NO_THROW(validate_trace(trace));
  const LearnResult r = learn_heuristic(trace, 8);
  for (const auto& h : r.hypotheses) {
    EXPECT_TRUE(matches_trace(h, trace));
  }
}

TEST(BrakeSystem, ArbiterLearnedAsDisjunction) {
  const SystemModel m = brake_system_model();
  const Trace trace = simulate_trace(m, 30, brake_sim_config(5));
  const DependencyMatrix learned = learn_heuristic(trace, 16).lub();
  const DependencyGraph g(learned, trace.task_names());
  EXPECT_EQ(g.role(g.by_name("AbsArbiter")), NodeRole::Disjunction);
  // The pedal chain is a hard requirement end to end.
  EXPECT_EQ(g.value(g.by_name("PedalSensor"), g.by_name("AbsArbiter")),
            DepValue::Forward);
}

TEST(BrakeSystem, DeadlineProvableOnlyWithLearnedModel) {
  const SystemModel m = brake_system_model();
  const Trace trace = simulate_trace(m, 30, brake_sim_config(5));
  const DependencyMatrix learned = learn_heuristic(trace, 16).lub();
  const auto responses = response_times(m, learned);
  const auto path = brake_critical_path(m);
  const TimeNs pess = path_latency(m, responses, path, false);
  const TimeNs dep = path_latency(m, responses, path, true);
  EXPECT_GT(pess, kBrakeDeadline);  // all-independent: cannot prove
  EXPECT_LE(dep, kBrakeDeadline);   // learned: proved
  EXPECT_LT(dep, pess);
}

TEST(BrakeSystem, DeadlineResultStableAcrossSeeds) {
  const SystemModel m = brake_system_model();
  for (std::uint64_t seed : {1u, 9u, 42u}) {
    const Trace trace = simulate_trace(m, 30, brake_sim_config(seed));
    const DependencyMatrix learned = learn_heuristic(trace, 16).lub();
    const auto responses = response_times(m, learned);
    const TimeNs dep =
        path_latency(m, responses, brake_critical_path(m), true);
    EXPECT_LE(dep, kBrakeDeadline) << "seed " << seed;
  }
}

}  // namespace
}  // namespace bbmg
