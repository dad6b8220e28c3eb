// Dependency-graph analysis: node classification, DOT export.
#include <gtest/gtest.h>

#include "analysis/dependency_graph.hpp"
#include "common/error.hpp"
#include "core/exact_learner.hpp"
#include "gen/scenarios.hpp"

namespace bbmg {
namespace {

DependencyGraph paper_graph() {
  const Trace trace = paper_example_trace();
  const LearnResult exact = learn_exact(trace);
  return DependencyGraph(exact.lub(), trace.task_names());
}

TEST(DependencyGraph, NameLookup) {
  const DependencyGraph g = paper_graph();
  EXPECT_EQ(g.by_name("t3").index(), 2u);
  EXPECT_EQ(g.name(TaskId{1u}), "t2");
  EXPECT_THROW((void)g.by_name("zz"), Error);
  EXPECT_THROW(DependencyGraph(DependencyMatrix(3), {"a"}), Error);
}

TEST(DependencyGraph, PaperRoles) {
  const DependencyGraph g = paper_graph();
  // t1 conditionally determines t2 and t3: a disjunction node.
  EXPECT_EQ(g.role(g.by_name("t1")), NodeRole::Disjunction);
  // t4 conditionally depends on t2 and t3: a conjunction node.
  EXPECT_EQ(g.role(g.by_name("t4")), NodeRole::Conjunction);
  EXPECT_EQ(g.role(g.by_name("t2")), NodeRole::Plain);
  EXPECT_EQ(g.role(g.by_name("t3")), NodeRole::Plain);
}

TEST(DependencyGraph, BothRoleDetected) {
  DependencyMatrix d(5);
  // Node 2 conditionally depends on 0,1 and conditionally determines 3,4.
  d.set(2, 0, DepValue::MaybeBackward);
  d.set(2, 1, DepValue::MaybeBackward);
  d.set(2, 3, DepValue::MaybeForward);
  d.set(2, 4, DepValue::MaybeForward);
  const DependencyGraph g(d, {"a", "b", "c", "d", "e"});
  EXPECT_EQ(g.role(TaskId{2u}), NodeRole::Both);
  // With a higher threshold it is plain.
  EXPECT_EQ(g.role(TaskId{2u}, 3), NodeRole::Plain);
}

TEST(DependencyGraph, AlwaysDeterminesAndDependsLists) {
  // In the paper's dLUB, t1's only -> entry is t4 and t4's only <- entry
  // is t1.
  const DependencyGraph g = paper_graph();
  const TaskId t1 = g.by_name("t1");
  const TaskId t4 = g.by_name("t4");
  for (std::size_t x = 0; x < g.num_tasks(); ++x) {
    const TaskId t{x};
    EXPECT_EQ(g.value(t1, t) == DepValue::Forward, t == t4) << g.name(t);
    EXPECT_EQ(g.value(t4, t) == DepValue::Backward, t == t1) << g.name(t);
  }
}

TEST(DependencyGraph, MustLeadToFollowsRequiredEdgesOnly) {
  // A chain of two -> entries is drawn solid; the ->? that ends it is
  // dashed, and no edge is drawn for the implied a-c requirement.
  DependencyMatrix d(4);
  d.set(0, 1, DepValue::Forward);
  d.set(1, 2, DepValue::Forward);
  d.set(2, 3, DepValue::MaybeForward);
  const DependencyGraph g(d, {"a", "b", "c", "d"});
  const std::string dot = g.to_dot();
  EXPECT_NE(dot.find("\"a\" -> \"b\" [label=\"-> / ||\"];"),
            std::string::npos);
  EXPECT_NE(dot.find("\"b\" -> \"c\" [label=\"-> / ||\"];"),
            std::string::npos);
  EXPECT_NE(dot.find("\"c\" -> \"d\" [label=\"->? / ||\" style=dashed];"),
            std::string::npos);
  EXPECT_EQ(dot.find("\"a\" -> \"c\""), std::string::npos);
}

TEST(DependencyGraph, PaperMustLeadToT4) {
  // t1 always determines t4 but only conditionally determines t3.
  const std::string dot = paper_graph().to_dot();
  EXPECT_NE(dot.find("\"t1\" -> \"t4\" [label=\"-> / <-\"]"),
            std::string::npos);
  EXPECT_NE(dot.find("\"t1\" -> \"t3\" [label=\"->? / <-\"]"),
            std::string::npos);
}

TEST(DependencyGraph, DotContainsRolesAndEdgeStyles) {
  const DependencyGraph g = paper_graph();
  const std::string dot = g.to_dot();
  EXPECT_NE(dot.find("digraph dependencies"), std::string::npos);
  EXPECT_NE(dot.find("\"t1\" [style=bold color=blue]"), std::string::npos);
  EXPECT_NE(dot.find("\"t4\" [style=bold color=red]"), std::string::npos);
  EXPECT_NE(dot.find("-> / <-"), std::string::npos);
  // In the paper's dLUB every raised pair carries a hard requirement on
  // one side, so no edge is dashed there; a purely conditional pair is.
  EXPECT_EQ(dot.find("style=dashed"), std::string::npos);
  DependencyMatrix cond(2);
  cond.set_pair(0, 1, DepValue::MaybeForward);
  const DependencyGraph gc(cond, {"a", "b"});
  EXPECT_NE(gc.to_dot().find("style=dashed"), std::string::npos);
}

TEST(DependencyGraph, DotSkipsParallelPairs) {
  DependencyMatrix d(3);
  d.set_pair(0, 1, DepValue::Forward);
  const DependencyGraph g(d, {"a", "b", "c"});
  const std::string dot = g.to_dot();
  EXPECT_EQ(dot.find("\"a\" -> \"c\""), std::string::npos);
  EXPECT_EQ(dot.find("\"b\" -> \"c\""), std::string::npos);
  EXPECT_NE(dot.find("\"a\" -> \"b\""), std::string::npos);
}

}  // namespace
}  // namespace bbmg
