// Scenario generators: the paper example, idealized/exhaustive traces, the
// GM case study, random models.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/exact_learner.hpp"
#include "gen/gm_case_study.hpp"
#include "gen/random_model.hpp"
#include "gen/scenarios.hpp"
#include "model/behavior.hpp"

namespace bbmg {
namespace {

TEST(Scenarios, PaperTraceMatchesPaperCounts) {
  const Trace t = paper_example_trace();
  EXPECT_EQ(t.num_tasks(), 4u);
  EXPECT_EQ(t.num_periods(), 3u);
  EXPECT_EQ(t.total_messages(), 8u);  // m1..m8
  EXPECT_NO_THROW(validate_trace(t));
}

TEST(Scenarios, IdealizedTraceIsValidAndDeterministic) {
  const SystemModel m = paper_example_model();
  const Trace a = idealized_trace(m, 10, 3);
  const Trace b = idealized_trace(m, 10, 3);
  EXPECT_NO_THROW(validate_trace(a));
  EXPECT_EQ(a.num_periods(), 10u);
  EXPECT_EQ(a.total_messages(), b.total_messages());
}

TEST(Scenarios, IdealizedLayoutKeepsTopologicalOrder) {
  const SystemModel m = paper_example_model();
  const Trace t = idealized_trace(m, 5, 1);
  for (const auto& period : t.periods()) {
    // t1 is always first; t4 (if present) always last.
    EXPECT_EQ(period.executions().front().task.index(), 0u);
    if (period.execution_of(TaskId{3u}) != nullptr) {
      EXPECT_EQ(period.executions().back().task.index(), 3u);
    }
  }
}

TEST(Scenarios, ExhaustiveTraceCoversTheBehaviorSpace) {
  const SystemModel m = paper_example_model();
  const Trace t = exhaustive_trace(m);
  EXPECT_EQ(t.num_periods(), enumerate_behaviors(m).size());
  // Learning from the exhaustive trace reproduces the paper's dLUB.
  const LearnResult exact = learn_exact(t);
  EXPECT_EQ(exact.lub().at(0, 3), DepValue::Forward);
}

TEST(GmCaseStudy, ShapeMatchesThePaper) {
  const SystemModel m = gm_case_study_model();
  EXPECT_EQ(m.num_tasks(), 18u);
  EXPECT_NO_THROW(m.validate());
  EXPECT_EQ(m.num_ecus(), 4u);
  // Task names are S plus A..Q.
  EXPECT_NO_THROW((void)m.task_by_name("S"));
  for (char c = 'A'; c <= 'Q'; ++c) {
    EXPECT_NO_THROW((void)m.task_by_name(std::string(1, c)));
  }
}

TEST(GmCaseStudy, DisjunctionAndConjunctionStructure) {
  const SystemModel m = gm_case_study_model();
  EXPECT_EQ(m.task(m.task_by_name("A")).output, OutputPolicy::ExactlyOne);
  EXPECT_EQ(m.task(m.task_by_name("B")).output, OutputPolicy::ExactlyOne);
  EXPECT_GE(m.in_edges(m.task_by_name("H")).size(), 2u);
  EXPECT_GE(m.in_edges(m.task_by_name("P")).size(), 2u);
  EXPECT_GE(m.in_edges(m.task_by_name("Q")).size(), 2u);
}

TEST(GmCaseStudy, OIsPureInfrastructure) {
  const SystemModel m = gm_case_study_model();
  const TaskId O = m.task_by_name("O");
  EXPECT_TRUE(m.out_edges(O).empty());
  EXPECT_TRUE(m.in_edges(O).empty());
  ASSERT_EQ(m.task(O).broadcasts.size(), 1u);
  // Higher priority than Q on the same ECU.
  const TaskId Q = m.task_by_name("Q");
  EXPECT_EQ(m.task(O).ecu, m.task(Q).ecu);
  EXPECT_GT(m.task(O).priority, m.task(Q).priority);
}

TEST(GmCaseStudy, EveryAModeLeadsToL) {
  // The design guarantee behind d(A,L) = ->: each of A's successors has an
  // unconditional edge to L.
  const SystemModel m = gm_case_study_model();
  const TaskId A = m.task_by_name("A");
  const TaskId L = m.task_by_name("L");
  for (std::size_t ei : m.out_edges(A)) {
    const TaskId mode = m.edges()[ei].to;
    bool reaches_l = false;
    for (std::size_t ej : m.out_edges(mode)) {
      if (m.edges()[ej].to == L) reaches_l = true;
    }
    EXPECT_TRUE(reaches_l) << "mode " << m.task(mode).name;
    EXPECT_EQ(m.task(mode).output, OutputPolicy::All);
  }
}

TEST(RandomModel, ValidatesAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    RandomModelParams params;
    params.num_tasks = 10;
    params.num_layers = 4;
    params.num_ecus = 3;
    params.broadcast_fraction = 0.3;
    params.seed = seed;
    const SystemModel m = random_model(params);
    EXPECT_EQ(m.num_tasks(), 10u);
    EXPECT_NO_THROW(m.validate());
  }
}

TEST(RandomModel, DeterministicForSeed) {
  RandomModelParams params;
  params.seed = 5;
  const SystemModel a = random_model(params);
  const SystemModel b = random_model(params);
  EXPECT_EQ(a.edges().size(), b.edges().size());
  for (std::size_t i = 0; i < a.edges().size(); ++i) {
    EXPECT_EQ(a.edges()[i].from, b.edges()[i].from);
    EXPECT_EQ(a.edges()[i].to, b.edges()[i].to);
  }
}

TEST(RandomModel, DisjunctionFractionZeroMeansAllDeterministic) {
  RandomModelParams params;
  params.disjunction_fraction = 0.0;
  params.seed = 9;
  const SystemModel m = random_model(params);
  for (const auto& t : m.tasks()) {
    EXPECT_EQ(t.output, OutputPolicy::All);
  }
  // Fully deterministic: exactly one behaviour.
  EXPECT_EQ(enumerate_behaviors(m).size(), 1u);
}

TEST(RandomModel, RejectsBadParams) {
  RandomModelParams params;
  params.num_tasks = 1;
  EXPECT_THROW((void)random_model(params), Error);
  params.num_tasks = 5;
  params.num_layers = 9;
  EXPECT_THROW((void)random_model(params), Error);
}

}  // namespace
}  // namespace bbmg
