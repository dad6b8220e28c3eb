// Structured execution traces.
//
// A Trace is a sequence of periods (paper §2.1: the system repeatedly
// executes a set of predefined tasks in periods; no message crosses a period
// boundary).  Each period records which tasks executed (start/end times) and
// the anonymous message occurrences seen on the bus (rise/fall times).  The
// learner consumes this structured form; TraceBuilder assembles it from raw
// events, and serialize.hpp round-trips it through a line-based text format.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "trace/event.hpp"

namespace bbmg {

struct TaskExecution {
  TaskId task{};
  TimeNs start{0};
  TimeNs end{0};
};

struct MessageOccurrence {
  TimeNs rise{0};
  TimeNs fall{0};
  CanId can_id{0};
};

class Period {
 public:
  Period() = default;
  Period(std::vector<TaskExecution> executions,
         std::vector<MessageOccurrence> messages);

  [[nodiscard]] const std::vector<TaskExecution>& executions() const {
    return executions_;
  }
  [[nodiscard]] const std::vector<MessageOccurrence>& messages() const {
    return messages_;
  }

  /// Execution record for `task`, or nullptr if it did not run.
  [[nodiscard]] const TaskExecution* execution_of(TaskId task) const;

  /// Flatten back to a time-ordered raw event list.
  [[nodiscard]] std::vector<Event> to_events() const;

 private:
  std::vector<TaskExecution> executions_;   // sorted by start time
  std::vector<MessageOccurrence> messages_; // sorted by rise time
};

class Trace {
 public:
  Trace() = default;
  explicit Trace(std::vector<std::string> task_names);

  [[nodiscard]] std::size_t num_tasks() const { return task_names_.size(); }
  [[nodiscard]] const std::vector<std::string>& task_names() const {
    return task_names_;
  }
  [[nodiscard]] const std::string& task_name(TaskId t) const {
    return task_names_[t.index()];
  }
  /// Index of a task name; throws if unknown.
  [[nodiscard]] TaskId task_by_name(const std::string& name) const;

  void add_period(Period p) { periods_.push_back(std::move(p)); }
  [[nodiscard]] const std::vector<Period>& periods() const { return periods_; }
  [[nodiscard]] std::size_t num_periods() const { return periods_.size(); }

  /// Total message occurrences across all periods.
  [[nodiscard]] std::size_t total_messages() const;
  /// Total task executions across all periods.
  [[nodiscard]] std::size_t total_executions() const;
  /// The paper's "event-pair executions of tasks and messages" metric:
  /// task executions + message occurrences (each contributes one
  /// start/end or rise/fall pair).
  [[nodiscard]] std::size_t total_event_pairs() const {
    return total_messages() + total_executions();
  }

 private:
  std::vector<std::string> task_names_;
  std::vector<Period> periods_;
};

/// Validate well-formedness; throws bbmg::Error describing the first
/// violation.  Rules:
///  * every execution has start < end and a valid task index, and each task
///    executes at most once per period (paper §2.1);
///  * executions are sorted by start time;
///  * every message has rise < fall;
///  * messages are sorted by rise and do not overlap (single shared bus);
///  * a period contains at least one task execution.
void validate_trace(const Trace& trace);

/// Incremental construction from time-ordered raw events.
class TraceBuilder {
 public:
  explicit TraceBuilder(std::vector<std::string> task_names);

  void begin_period();
  void add_event(const Event& e);
  /// Validates and appends the accumulated period.  Throws on dangling
  /// task starts or unmatched message rises.
  void end_period();

  /// Abandon the partially-built period (if any) after a throw from
  /// add_event/end_period left the builder mid-period.  Completed periods
  /// and the task set are untouched; the caller can continue with
  /// begin_period for the next period (the lenient loader's recovery path).
  void reset();

  /// Finish: returns the trace (validates it first).
  [[nodiscard]] Trace take();

 private:
  Trace trace_;
  bool in_period_{false};
  std::vector<TaskExecution> executions_;
  std::vector<MessageOccurrence> messages_;
  std::vector<std::optional<TimeNs>> open_start_;  // per task
  std::optional<std::pair<TimeNs, CanId>> open_msg_;
};

}  // namespace bbmg
