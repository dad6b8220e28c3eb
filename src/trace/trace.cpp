#include "trace/trace.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace bbmg {

Period::Period(std::vector<TaskExecution> executions,
               std::vector<MessageOccurrence> messages)
    : executions_(std::move(executions)), messages_(std::move(messages)) {
  std::sort(executions_.begin(), executions_.end(),
            [](const TaskExecution& a, const TaskExecution& b) {
              return a.start < b.start ||
                     (a.start == b.start && a.task < b.task);
            });
  std::sort(messages_.begin(), messages_.end(),
            [](const MessageOccurrence& a, const MessageOccurrence& b) {
              return a.rise < b.rise;
            });
}

const TaskExecution* Period::execution_of(TaskId task) const {
  for (const auto& e : executions_) {
    if (e.task == task) return &e;
  }
  return nullptr;
}

std::vector<Event> Period::to_events() const {
  std::vector<Event> events;
  events.reserve(2 * (executions_.size() + messages_.size()));
  for (const auto& e : executions_) {
    events.push_back(Event::task_start(e.start, e.task));
    events.push_back(Event::task_end(e.end, e.task));
  }
  for (const auto& m : messages_) {
    events.push_back(Event::msg_rise(m.rise, m.can_id));
    events.push_back(Event::msg_fall(m.fall, m.can_id));
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) { return a.time < b.time; });
  return events;
}

Trace::Trace(std::vector<std::string> task_names)
    : task_names_(std::move(task_names)) {}

TaskId Trace::task_by_name(const std::string& name) const {
  for (std::size_t i = 0; i < task_names_.size(); ++i) {
    if (task_names_[i] == name) return TaskId{i};
  }
  raise("unknown task name in trace: '" + name + "'");
}

std::size_t Trace::total_messages() const {
  std::size_t n = 0;
  for (const auto& p : periods_) n += p.messages().size();
  return n;
}

std::size_t Trace::total_executions() const {
  std::size_t n = 0;
  for (const auto& p : periods_) n += p.executions().size();
  return n;
}

void validate_trace(const Trace& trace) {
  const std::size_t nt = trace.num_tasks();
  std::size_t period_no = 0;
  for (const auto& period : trace.periods()) {
    ++period_no;
    const std::string where = " (period " + std::to_string(period_no) + ")";

    BBMG_REQUIRE(!period.executions().empty(),
                 "period without task executions" + where);

    std::vector<bool> seen(nt, false);
    TimeNs prev_start = 0;
    for (const auto& e : period.executions()) {
      BBMG_REQUIRE(e.task.index() < nt, "execution task index out of range" + where);
      BBMG_REQUIRE(!seen[e.task.index()],
                   "task executed more than once in a period" + where);
      seen[e.task.index()] = true;
      BBMG_REQUIRE(e.start < e.end, "task execution with start >= end" + where);
      BBMG_REQUIRE(e.start >= prev_start,
                   "executions not sorted by start time" + where);
      prev_start = e.start;
    }

    TimeNs prev_fall = 0;
    bool first = true;
    for (const auto& m : period.messages()) {
      BBMG_REQUIRE(m.rise < m.fall, "message with rise >= fall" + where);
      if (!first) {
        BBMG_REQUIRE(m.rise >= prev_fall,
                     "overlapping messages on a single bus" + where);
      }
      first = false;
      prev_fall = m.fall;
    }
  }
}

TraceBuilder::TraceBuilder(std::vector<std::string> task_names)
    : trace_(std::move(task_names)),
      open_start_(trace_.num_tasks(), std::nullopt) {}

void TraceBuilder::begin_period() {
  BBMG_REQUIRE(!in_period_, "begin_period inside an open period");
  in_period_ = true;
  executions_.clear();
  messages_.clear();
  std::fill(open_start_.begin(), open_start_.end(), std::nullopt);
  open_msg_.reset();
}

void TraceBuilder::add_event(const Event& e) {
  BBMG_REQUIRE(in_period_, "event outside a period");
  switch (e.kind) {
    case EventKind::TaskStart: {
      BBMG_REQUIRE(e.task.index() < trace_.num_tasks(), "task index out of range");
      BBMG_REQUIRE(!open_start_[e.task.index()].has_value(),
                   "task started twice without ending");
      for (const auto& done : executions_) {
        BBMG_REQUIRE(done.task != e.task, "task executed twice in one period");
      }
      open_start_[e.task.index()] = e.time;
      break;
    }
    case EventKind::TaskEnd: {
      BBMG_REQUIRE(e.task.index() < trace_.num_tasks(), "task index out of range");
      auto& open = open_start_[e.task.index()];
      BBMG_REQUIRE(open.has_value(), "task end without start");
      executions_.push_back(TaskExecution{e.task, *open, e.time});
      open.reset();
      break;
    }
    case EventKind::MsgRise: {
      BBMG_REQUIRE(!open_msg_.has_value(),
                   "message rise while another message is on the bus");
      open_msg_ = std::make_pair(e.time, e.can_id);
      break;
    }
    case EventKind::MsgFall: {
      BBMG_REQUIRE(open_msg_.has_value(), "message fall without rise");
      BBMG_REQUIRE(open_msg_->second == e.can_id,
                   "message fall id differs from rise id");
      messages_.push_back(
          MessageOccurrence{open_msg_->first, e.time, e.can_id});
      open_msg_.reset();
      break;
    }
  }
}

void TraceBuilder::end_period() {
  BBMG_REQUIRE(in_period_, "end_period without begin_period");
  for (std::size_t t = 0; t < open_start_.size(); ++t) {
    BBMG_REQUIRE(!open_start_[t].has_value(),
                 "period ended with a task still running");
  }
  BBMG_REQUIRE(!open_msg_.has_value(),
               "period ended with a message still on the bus");
  trace_.add_period(Period(std::move(executions_), std::move(messages_)));
  executions_ = {};
  messages_ = {};
  in_period_ = false;
}

void TraceBuilder::reset() {
  in_period_ = false;
  executions_.clear();
  messages_.clear();
  std::fill(open_start_.begin(), open_start_.end(), std::nullopt);
  open_msg_.reset();
}

Trace TraceBuilder::take() {
  BBMG_REQUIRE(!in_period_, "take() with an open period");
  validate_trace(trace_);
  return std::move(trace_);
}

}  // namespace bbmg
