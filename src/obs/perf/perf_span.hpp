// A Span variant that also charges hardware counters to the recorded span
// (DESIGN.md "Performance observability").
//
// PerfSpan behaves exactly like obs::Span — one clock pair, histogram
// observe in microseconds, optional ring append — and additionally brackets
// the stage with two PerfCounterGroup reads so the ring record (and thus
// the Chrome-trace args and the TraceDump wire format) carries
// cycles/instructions/cache-misses/branch-misses for the stage.
//
// Cost discipline: the counter reads are syscalls, so they are paid only
// when they can be observed — the ring must be enabled and the thread's
// group supported; otherwise PerfSpan degrades to a plain wall-clock span
// (the fallback behaviour the perf tests pin).  With BBMG_OBS=OFF the
// whole object is inert.
#pragma once

#include "obs/perf/perf_counters.hpp"
#include "obs/span.hpp"

namespace bbmg::obs {

class PerfSpan {
 public:
  explicit PerfSpan(Histogram* latency_us, const char* name,
                    SpanRing* ring = &SpanRing::instance(),
                    PerfCounterGroup* group = nullptr)
#if BBMG_OBS_ENABLED
      : histogram_(latency_us), name_(name), ring_(ring) {
    if (ring_ != nullptr && ring_->enabled()) {
      PerfCounterGroup& g =
          group != nullptr ? *group : PerfCounterGroup::this_thread();
      if (g.supported()) {
        group_ = &g;
        begin_ = g.read();
      }
    }
    start_ = now_ns();
  }
#else
  {
    (void)latency_us;
    (void)name;
    (void)ring;
    (void)group;
  }
#endif

  PerfSpan(const PerfSpan&) = delete;
  PerfSpan& operator=(const PerfSpan&) = delete;

  ~PerfSpan() { finish(); }

  /// Record now instead of at destruction (idempotent).  After finish(),
  /// hw() holds the span's counter delta (all-zero when uncounted).
  void finish() {
#if BBMG_OBS_ENABLED
    if (done_) return;
    done_ = true;
    const std::uint64_t dur = now_ns() - start_;
    if (group_ != nullptr) delta_ = perf_delta(begin_, group_->read());
    if (histogram_ != nullptr) histogram_->observe(dur / 1000);
    if (ring_ != nullptr && ring_->enabled()) {
      SpanRecord r{name_, start_, dur, current_thread_index()};
      r.cycles = delta_.cycles;
      r.instructions = delta_.instructions;
      r.cache_misses = delta_.cache_misses;
      r.branch_misses = delta_.branch_misses;
      ring_->record(r);
    }
#endif
  }

  [[nodiscard]] const PerfDelta& hw() const { return delta_; }

 private:
  PerfDelta delta_;
#if BBMG_OBS_ENABLED
  Histogram* histogram_{nullptr};
  const char* name_{""};
  SpanRing* ring_{nullptr};
  PerfCounterGroup* group_{nullptr};
  PerfSample begin_;
  std::uint64_t start_{0};
  bool done_{false};
#endif
};

}  // namespace bbmg::obs
