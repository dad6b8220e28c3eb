#include "analysis/conformance.hpp"

#include <functional>

#include "common/bitset.hpp"

namespace bbmg {

namespace {

/// Deepest message index reached by the injective-assignment search; used
/// to report where an unexplainable period stops being explainable.
struct AssignmentProbe {
  const DependencyMatrix& d;
  const PeriodCandidates& pc;
  DynamicBitset assigned;
  std::size_t deepest = 0;

  AssignmentProbe(const DependencyMatrix& model, const PeriodCandidates& cand)
      : d(model), pc(cand), assigned(model.num_tasks() * model.num_tasks()) {}

  bool assign(std::size_t msg) {
    deepest = std::max(deepest, msg);
    if (msg == pc.num_messages()) return true;
    const std::size_t n = d.num_tasks();
    for (const CandidatePair& p : pc.candidates(msg)) {
      if (assigned.test(p.pair_index)) continue;
      const std::size_t s = p.sender.index();
      const std::size_t r = p.receiver.index();
      if (!dep_permits_forward(d.at(s, r))) continue;
      if (!dep_permits_backward(d.at(r, s))) continue;
      (void)n;
      assigned.set(p.pair_index);
      if (assign(msg + 1)) return true;
      assigned.reset(p.pair_index);
    }
    return false;
  }
};

}  // namespace

void check_period_conformance(const DependencyMatrix& model,
                              const Period& period, std::size_t num_tasks,
                              std::size_t period_index,
                              std::vector<ConformanceViolation>& out) {
  const PeriodCandidates pc(period, num_tasks);

  // Requirement side: assignment-independent.
  pc.for_each_ran_idle([&](std::size_t a, std::size_t b) {
    const DepValue v = model.at(a, b);
    if (dep_requires_forward(v) || dep_requires_backward(v)) {
      ConformanceViolation violation;
      violation.kind = ViolationKind::UnmetRequirement;
      violation.period_index = period_index;
      violation.a = TaskId{a};
      violation.b = TaskId{b};
      violation.entry = v;
      out.push_back(violation);
    }
  });

  // Permission side: the messages must be explainable.
  AssignmentProbe probe(model, pc);
  if (!probe.assign(0)) {
    ConformanceViolation violation;
    violation.kind = ViolationKind::UnexplainableMessages;
    violation.period_index = period_index;
    violation.message_index = probe.deepest;
    out.push_back(violation);
  }
}

ConformanceReport check_conformance(const DependencyMatrix& model,
                                    const Trace& trace) {
  ConformanceReport report;
  for (std::size_t p = 0; p < trace.num_periods(); ++p) {
    check_period_conformance(model, trace.periods()[p], trace.num_tasks(), p,
                             report.violations);
  }
  report.periods_checked = trace.num_periods();
  return report;
}

std::string describe_violation(const ConformanceViolation& v,
                               const std::vector<std::string>& names) {
  const std::string where = "period " + std::to_string(v.period_index + 1);
  if (v.kind == ViolationKind::UnmetRequirement) {
    return where + ": d(" + names[v.a.index()] + "," + names[v.b.index()] +
           ") = " + std::string(dep_to_string(v.entry)) + " but " +
           names[v.a.index()] + " executed without " + names[v.b.index()];
  }
  return where + ": messages cannot be explained by the model's permitted "
                 "dependencies (search stalled at message " +
         std::to_string(v.message_index + 1) + ")";
}

}  // namespace bbmg
