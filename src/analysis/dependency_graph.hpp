// Dependency-graph views of a learned dependency function: node
// classification (disjunction / conjunction, §2.1) and Graphviz export in
// the style of the paper's Fig. 5.
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"
#include "lattice/dependency_matrix.hpp"

namespace bbmg {

enum class NodeRole : std::uint8_t {
  /// Conditionally determines two or more other tasks — it chooses
  /// execution paths (the paper's t1, A, B).
  Disjunction,
  /// Conditionally depends on two or more other tasks — it passively
  /// receives from whichever upstream mode ran (the paper's t4, H, P, Q).
  Conjunction,
  /// Both of the above.
  Both,
  Plain,
};

class DependencyGraph {
 public:
  DependencyGraph(DependencyMatrix d, std::vector<std::string> task_names);

  [[nodiscard]] const DependencyMatrix& matrix() const { return d_; }
  [[nodiscard]] std::size_t num_tasks() const { return d_.num_tasks(); }
  [[nodiscard]] const std::string& name(TaskId t) const {
    return names_[t.index()];
  }
  [[nodiscard]] TaskId by_name(const std::string& name) const;

  [[nodiscard]] DepValue value(TaskId a, TaskId b) const { return d_.at(a, b); }

  /// Classification by the learned matrix: t is a disjunction node if it
  /// conditionally determines (->?) at least `threshold` tasks, a
  /// conjunction node if it conditionally depends on (<-?) at least
  /// `threshold` tasks.
  [[nodiscard]] NodeRole role(TaskId t, std::size_t threshold = 2) const;

  /// Graphviz export; one styled edge per unordered pair with any
  /// dependency, annotated with the pair's two oriented values.
  [[nodiscard]] std::string to_dot() const;

 private:
  DependencyMatrix d_;
  std::vector<std::string> names_;
};

}  // namespace bbmg
