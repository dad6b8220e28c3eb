#include "obs/profiler.hpp"

#include "common/error.hpp"
#include "obs/span.hpp"

namespace bbmg::obs {

PhaseProfiler::PhaseProfiler(const std::string& prefix,
                             const std::string& hw_prefix,
                             std::vector<std::string> phase_names) {
  BBMG_REQUIRE(!phase_names.empty(), "profiler: need at least one phase");
  MetricsRegistry& reg = MetricsRegistry::instance();
  slots_.reserve(phase_names.size());
  for (std::string& name : phase_names) {
    auto counter = [&](const std::string& family, const char* help) {
      return &reg.counter(labeled_name(family, "phase", name), help);
    };
    Slot slot;
    slot.ns = counter(prefix + "_phase_ns_total",
                      "Estimated nanoseconds attributed to each phase of the "
                      "profiled unit (stride-scaled sample)");
    slot.calls = counter(prefix + "_phase_calls_total",
                         "Estimated phase executions (stride-scaled sample)");
    slot.cycles = counter(
        hw_prefix + "_cycles_total",
        "Estimated CPU cycles per phase (stride-scaled perf sample)");
    slot.instructions = counter(hw_prefix + "_instructions_total",
                                "Estimated retired instructions per phase "
                                "(stride-scaled perf sample)");
    slot.cache_misses = counter(
        hw_prefix + "_cache_misses_total",
        "Estimated cache misses per phase (stride-scaled perf sample)");
    slot.branch_misses = counter(
        hw_prefix + "_branch_misses_total",
        "Estimated branch misses per phase (stride-scaled perf sample)");
    slot.alloc_bytes = counter(prefix + "_phase_alloc_bytes_total",
                               "Estimated heap bytes requested per phase "
                               "(stride-scaled sample; zero when "
                               "BBMG_ALLOC_TRACK is off)");
    slot.allocs = counter(prefix + "_phase_allocs_total",
                          "Estimated allocations per phase (stride-scaled "
                          "sample; zero when BBMG_ALLOC_TRACK is off)");
    slot.name = std::move(name);
    slots_.push_back(std::move(slot));
  }
  units_ = &reg.counter(prefix + "_profiled_units_total",
                        "Estimated units of work covered by the sampling "
                        "profiler (stride-scaled)");
  total_ns_ = &reg.counter(
      prefix + "_profiled_ns_total",
      "Estimated total wall nanoseconds of profiled units (attribution "
      "denominator, stride-scaled)");
}

void PhaseProfiler::Unit::begin() {
  const PerfCounterGroup& group = PerfCounterGroup::this_thread();
  if (group.supported()) {
    hw_ = &group;
    last_hw_ = group.read();
  }
  last_alloc_ = thread_alloc_counters();
  start_ns_ = last_ns_ = now_ns();
}

void PhaseProfiler::Unit::charge(std::size_t phase, std::uint64_t calls) {
  const std::uint64_t ns = now_ns();
  const PerfSample hw = hw_ != nullptr ? hw_->read() : PerfSample{};
  const AllocCounters alloc = thread_alloc_counters();
  profiler_->record(phase, ns - last_ns_, calls);
  profiler_->record_hw(phase, perf_delta(last_hw_, hw));
  const AllocCounters churn = alloc_delta(last_alloc_, alloc);
  profiler_->record_alloc(phase, churn.bytes, churn.count);
  last_ns_ = ns;
  last_hw_ = hw;
  last_alloc_ = alloc;
}

void PhaseProfiler::record(std::size_t phase, std::uint64_t ns,
                           std::uint64_t calls) {
  if (phase >= slots_.size()) return;
  const std::uint64_t k = scale();
  slots_[phase].ns->inc(ns * k);
  slots_[phase].calls->inc(calls * k);
}

void PhaseProfiler::record_unit(std::uint64_t total_ns) {
  const std::uint64_t k = scale();
  units_->inc(k);
  total_ns_->inc(total_ns * k);
}

void PhaseProfiler::record_hw(std::size_t phase, const PerfDelta& delta) {
  if (phase >= slots_.size() || !delta.any()) return;
  const std::uint64_t k = scale();
  const Slot& slot = slots_[phase];
  if (delta.cycles != 0) slot.cycles->inc(delta.cycles * k);
  if (delta.instructions != 0) slot.instructions->inc(delta.instructions * k);
  if (delta.cache_misses != 0) slot.cache_misses->inc(delta.cache_misses * k);
  if (delta.branch_misses != 0) {
    slot.branch_misses->inc(delta.branch_misses * k);
  }
}

void PhaseProfiler::record_alloc(std::size_t phase, std::uint64_t bytes,
                                 std::uint64_t count) {
  if (phase >= slots_.size()) return;
  const std::uint64_t k = scale();
  if (bytes != 0) slots_[phase].alloc_bytes->inc(bytes * k);
  if (count != 0) slots_[phase].allocs->inc(count * k);
}

const std::string& PhaseProfiler::phase_name(std::size_t phase) const {
  BBMG_REQUIRE(phase < slots_.size(), "profiler: phase index out of range");
  return slots_[phase].name;
}

std::uint64_t PhaseProfiler::phase_ns(std::size_t phase) const {
  return phase >= slots_.size() ? 0 : slots_[phase].ns->value();
}

}  // namespace bbmg::obs
