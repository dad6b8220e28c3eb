// In-process observability, layer 2: RAII stage timers.
//
// A Span measures one stage of work (a learned period, a model query) and
// on destruction records the duration into a latency Histogram — one clock
// pair and three relaxed fetch_adds per stage.  Optionally (off by
// default), spans also append a SpanRecord into a bounded in-memory ring;
// the ring can be drained and exported as Chrome about://tracing JSON
// (trace_export.hpp) to see *where* the time of a serving process went,
// thread by thread.  The ring is mutex-protected: it is a debugging
// surface that is disabled on the steady-state hot path, so simplicity
// and TSan-cleanliness win over lock-freedom there.
//
// With BBMG_OBS=OFF both the histogram write and the ring append compile
// to nothing, including the clock reads.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace bbmg::obs {

/// Monotonic nanoseconds since an arbitrary process-local epoch; 0 when
/// instrumentation is compiled out.
[[nodiscard]] std::uint64_t now_ns();

struct SpanRecord {
  /// Static stage label ("learner.period", "serve.query", ...).
  const char* name{""};
  std::uint64_t start_ns{0};
  std::uint64_t duration_ns{0};
  /// Small dense per-thread id (not the OS tid), stable within the process.
  std::uint32_t thread{0};
  /// Causal-tracing fields (obs/trace_context.hpp); all zero for plain
  /// stage timers.  parent_id links child stages; flow marks the span as
  /// one end of a cross-process arrow (FlowDir) keyed by trace_id.
  std::uint64_t trace_id{0};
  std::uint64_t span_id{0};
  std::uint64_t parent_id{0};
  std::uint8_t flow{0};
  /// Hardware-counter deltas over the span (obs/perf/perf_span.hpp); all
  /// zero for plain spans and when the PMU is unsupported.  Rendered as
  /// Chrome-trace args and carried by the TraceDump wire format.
  std::uint64_t cycles{0};
  std::uint64_t instructions{0};
  std::uint64_t cache_misses{0};
  std::uint64_t branch_misses{0};
};

/// Default capacity of a SpanRing (overridable per ring, and for the
/// process-wide ring via `bbmg_served --span-ring N`).
inline constexpr std::size_t kDefaultSpanRingCapacity = 4096;

/// Bounded ring of completed spans; when full, the oldest are overwritten
/// and the eviction is counted in `bbmg_obs_span_drops_total`.
class SpanRing {
 public:
  explicit SpanRing(std::size_t capacity = kDefaultSpanRingCapacity);

  static SpanRing& instance();

  /// Re-bound the ring (discards buffered spans).  Meant for startup
  /// configuration; safe at any time, but racing recorders may land in
  /// either generation of the buffer.
  void set_capacity(std::size_t capacity);

  /// Recording is disabled by default; Span::finish checks this flag with
  /// one relaxed load before paying the lock.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  void record(const SpanRecord& record);

  /// Copy out the buffered spans, oldest first.
  [[nodiscard]] std::vector<SpanRecord> records() const;
  /// records() + clear in one critical section.
  [[nodiscard]] std::vector<SpanRecord> drain();
  void clear();

  [[nodiscard]] std::size_t capacity() const;
  /// Total spans ever recorded (>= buffered size; the excess was evicted).
  [[nodiscard]] std::uint64_t total_recorded() const;
  /// Spans evicted unread because the ring wrapped (== the ring's share of
  /// bbmg_obs_span_drops_total).
  [[nodiscard]] std::uint64_t dropped() const;

 private:
  [[nodiscard]] std::vector<SpanRecord> copy_locked() const;

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::size_t capacity_;
  std::vector<SpanRecord> ring_;
  std::size_t next_{0};
  std::uint64_t total_{0};
  std::uint64_t dropped_{0};
};

/// Dense per-thread index used in span records (0, 1, 2, ... in first-use
/// order).  Exposed for tests.
[[nodiscard]] std::uint32_t current_thread_index();

/// RAII stage timer: records into `latency_us` (microseconds) and, when the
/// ring is enabled, appends a SpanRecord.  A null histogram skips the
/// histogram write (ring-only span).  Cheap to construct/destroy; with
/// BBMG_OBS=OFF the whole object is inert.
class Span {
 public:
  explicit Span(Histogram* latency_us, const char* name,
                SpanRing* ring = &SpanRing::instance())
#if BBMG_OBS_ENABLED
      : histogram_(latency_us), name_(name), ring_(ring), start_(now_ns()) {
  }
#else
  {
    (void)latency_us;
    (void)name;
    (void)ring;
  }
#endif

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  ~Span() { finish(); }

  /// Record now instead of at destruction (idempotent).
  void finish();

 private:
#if BBMG_OBS_ENABLED
  Histogram* histogram_{nullptr};
  const char* name_{""};
  SpanRing* ring_{nullptr};
  std::uint64_t start_{0};
  bool done_{false};
#endif
};

inline void Span::finish() {
#if BBMG_OBS_ENABLED
  if (done_) return;
  done_ = true;
  const std::uint64_t dur = now_ns() - start_;
  if (histogram_ != nullptr) histogram_->observe(dur / 1000);
  if (ring_ != nullptr && ring_->enabled()) {
    ring_->record(SpanRecord{name_, start_, dur, current_thread_index()});
  }
#endif
}

}  // namespace bbmg::obs
