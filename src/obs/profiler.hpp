// In-process observability, layer 4: a lightweight sampling self-profiler.
//
// A PhaseProfiler attributes the wall time of a repeated unit of work (for
// the learner: one observed period) to a fixed set of named phases.  The
// unit is sampled 1-in-stride: an unsampled unit pays exactly one relaxed
// fetch_add (the sampling decision) and zero clock reads, so the profiler
// can stay on in production; a sampled unit pays one clock read, one
// hardware-counter group read and three thread-local loads per phase
// boundary.
// Accumulated nanoseconds and call counts land in registered counters
// (`<prefix>_phase_ns_total{phase="..."}` etc.), so the attribution rides
// every existing scrape surface — exposition, the wire MetricsRequest, and
// the bbmg_monitor telemetry plane — with no new machinery.
//
// Counter semantics at stride > 1: every record_* call scales what it
// writes by the stride in force, so the registered counters are unbiased
// *estimates of the totals over all units* — the 1-in-stride sample stands
// in for the stride-1 units around it.  (Earlier versions recorded only the
// sampled units' raw counts, which undercounted every rate by the stride;
// the stride-exactness test pins the scaled behaviour at strides 1/16/256.)
// Ratios — the attributed share of unit time, per-phase shares,
// ns-per-call — are unaffected because the scale cancels.  bench_obs still
// runs with stride 1 to make the attribution exact rather than estimated.
//
// Two more dimensions ride the same phase boundaries: hardware counters
// (`<hw_prefix>_{cycles,instructions,cache_misses,branch_misses}_total`,
// PerfCounterGroup deltas — IPC and miss rates per phase) and heap churn
// (`<prefix>_phase_alloc_bytes_total` / `<prefix>_phase_allocs_total`,
// alloc_track deltas).  Callers time a unit with the RAII Unit below.
//
// With BBMG_OBS=OFF, sample() returns false (no clock reads anywhere) and
// record() compiles to nothing.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/alloc_track.hpp"
#include "obs/metrics.hpp"
#include "obs/perf/perf_counters.hpp"

namespace bbmg::obs {

/// Default sampling stride: one unit in 16 is timed.
inline constexpr std::uint32_t kDefaultProfilerStride = 16;

class PhaseProfiler {
 public:
  /// Registers `<prefix>_phase_ns_total{phase=...}` and
  /// `<prefix>_phase_calls_total{phase=...}` per phase, plus
  /// `<prefix>_profiled_units_total` and `<prefix>_profiled_ns_total`,
  /// then the hardware (`<hw_prefix>_cycles_total{phase=...}` etc.) and
  /// allocation dimensions, into the process-wide registry.
  PhaseProfiler(const std::string& prefix, const std::string& hw_prefix,
                std::vector<std::string> phase_names);

  /// RAII timer over one unit of work.  Construction makes the sampling
  /// decision; an unsampled unit reads nothing (laps and the destructor
  /// return at once).  On a sampled unit each lap(phase, calls) charges the
  /// wall time, hardware-counter delta and allocation delta since the
  /// previous boundary (construction or the last lap) to `phase`, and the
  /// destructor records the unit total, construction to last lap — so the
  /// phases tile the unit exactly.
  class Unit {
   public:
    explicit Unit(PhaseProfiler& profiler)
        : profiler_(profiler.sample() ? &profiler : nullptr) {
      if (profiler_ != nullptr) begin();
    }
    ~Unit() {
      if (profiler_ != nullptr) profiler_->record_unit(last_ns_ - start_ns_);
    }
    Unit(const Unit&) = delete;
    Unit& operator=(const Unit&) = delete;

    void lap(std::size_t phase, std::uint64_t calls = 1) {
      if (profiler_ != nullptr) charge(phase, calls);
    }

   private:
    void begin();
    void charge(std::size_t phase, std::uint64_t calls);

    PhaseProfiler* profiler_;  // null on an unsampled unit
    const PerfCounterGroup* hw_{nullptr};  // null without a usable PMU
    std::uint64_t start_ns_{0};
    std::uint64_t last_ns_{0};
    PerfSample last_hw_;
    AllocCounters last_alloc_;
  };

  PhaseProfiler(const PhaseProfiler&) = delete;
  PhaseProfiler& operator=(const PhaseProfiler&) = delete;

  /// Sampling decision for the next unit of work; true 1-in-stride.
  /// Callers time phases only when this returned true.
  [[nodiscard]] bool sample() {
#if BBMG_OBS_ENABLED
    const std::uint32_t stride = stride_.load(std::memory_order_relaxed);
    if (stride == 0) return false;
    return tick_.fetch_add(1, std::memory_order_relaxed) % stride == 0;
#else
    return false;
#endif
  }

  /// 0 disables sampling entirely; 1 times every unit.
  void set_stride(std::uint32_t stride) {
    stride_.store(stride, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint32_t stride() const {
    return stride_.load(std::memory_order_relaxed);
  }

  /// Record `ns` nanoseconds against phase `phase` (index into the
  /// constructor's phase_names) for a sampled unit.  Scaled by the stride
  /// (see header comment), as are all record_* methods.
  void record(std::size_t phase, std::uint64_t ns, std::uint64_t calls = 1);
  /// Record a sampled unit's total wall time (the attribution denominator).
  void record_unit(std::uint64_t total_ns);

  /// Charge a sampled phase's hardware-counter delta.
  void record_hw(std::size_t phase, const PerfDelta& delta);
  /// Charge a sampled phase's heap churn.
  void record_alloc(std::size_t phase, std::uint64_t bytes,
                    std::uint64_t count);

  [[nodiscard]] std::size_t num_phases() const { return slots_.size(); }
  [[nodiscard]] const std::string& phase_name(std::size_t phase) const;

  /// Accumulated totals (for benches; scrapers read the registered metrics
  /// instead).  Stride-scaled like the counters.
  [[nodiscard]] std::uint64_t phase_ns(std::size_t phase) const;
  [[nodiscard]] std::uint64_t units() const { return units_->value(); }
  [[nodiscard]] std::uint64_t total_ns() const { return total_ns_->value(); }

 private:
  /// Stride to scale a record_* write by (>= 1; a concurrent set_stride(0)
  /// must not zero out an already-sampled unit's record).
  [[nodiscard]] std::uint64_t scale() const {
    const std::uint32_t s = stride_.load(std::memory_order_relaxed);
    return s == 0 ? 1 : s;
  }

  struct Slot {
    std::string name;
    Counter* ns{nullptr};
    Counter* calls{nullptr};
    Counter* cycles{nullptr};
    Counter* instructions{nullptr};
    Counter* cache_misses{nullptr};
    Counter* branch_misses{nullptr};
    Counter* alloc_bytes{nullptr};
    Counter* allocs{nullptr};
  };

  std::vector<Slot> slots_;
  Counter* units_{nullptr};
  Counter* total_ns_{nullptr};
  std::atomic<std::uint32_t> stride_{kDefaultProfilerStride};
  std::atomic<std::uint64_t> tick_{0};
};

}  // namespace bbmg::obs
