#include "analysis/dependency_graph.hpp"

#include <vector>

#include "common/error.hpp"

namespace bbmg {

DependencyGraph::DependencyGraph(DependencyMatrix d,
                                 std::vector<std::string> task_names)
    : d_(std::move(d)), names_(std::move(task_names)) {
  BBMG_REQUIRE(names_.size() == d_.num_tasks(),
               "task-name count must match matrix size");
}

TaskId DependencyGraph::by_name(const std::string& name) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return TaskId{i};
  }
  raise("unknown task name: '" + name + "'");
}

NodeRole DependencyGraph::role(TaskId t, std::size_t threshold) const {
  std::size_t cond_out = 0;
  std::size_t cond_in = 0;
  for (std::size_t b = 0; b < d_.num_tasks(); ++b) {
    if (b == t.index()) continue;
    const DepValue v = d_.at(t.index(), b);
    if (v == DepValue::MaybeForward) ++cond_out;
    if (v == DepValue::MaybeBackward) ++cond_in;
  }
  const bool disj = cond_out >= threshold;
  const bool conj = cond_in >= threshold;
  if (disj && conj) return NodeRole::Both;
  if (disj) return NodeRole::Disjunction;
  if (conj) return NodeRole::Conjunction;
  return NodeRole::Plain;
}

std::string DependencyGraph::to_dot() const {
  std::string out =
      "digraph dependencies {\n  rankdir=TB;\n  node [shape=circle];\n";
  const std::size_t n = d_.num_tasks();
  for (std::size_t i = 0; i < n; ++i) {
    out += "  \"" + names_[i] + "\"";
    switch (role(TaskId{i})) {
      case NodeRole::Disjunction:
        out += " [style=bold color=blue]";
        break;
      case NodeRole::Conjunction:
        out += " [style=bold color=red]";
        break;
      case NodeRole::Both:
        out += " [style=bold color=purple]";
        break;
      case NodeRole::Plain:
        break;
    }
    out += ";\n";
  }
  // One edge per unordered pair, labelled with both oriented values, solid
  // for unconditional determination, dashed for conditional.
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      const DepValue ab = d_.at(a, b);
      const DepValue ba = d_.at(b, a);
      if (ab == DepValue::Parallel && ba == DepValue::Parallel) continue;
      const bool must = dep_requires_forward(ab) || dep_requires_backward(ba);
      out += "  \"" + names_[a] + "\" -> \"" + names_[b] + "\" [label=\"" +
             std::string(dep_to_string(ab)) + " / " +
             std::string(dep_to_string(ba)) + "\"" +
             (must ? "" : " style=dashed") + "];\n";
    }
  }
  out += "}\n";
  return out;
}

}  // namespace bbmg
