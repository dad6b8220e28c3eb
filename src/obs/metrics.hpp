// In-process observability, layer 1: a process-wide registry of named
// counters, gauges and fixed-bucket histograms (DESIGN.md "Observability").
//
// The design constraint is the learner hot path: instrumenting a period
// must cost a handful of relaxed fetch_adds, never a lock.  Metric objects
// are created once (registration takes a mutex, lookups are expected to be
// cached by the instrumented code — see e.g. core/learner_metrics.hpp) and
// after that every update is a single relaxed atomic RMW on a stable
// address.  Relaxed ordering is deliberate: metrics are monotone event
// counts whose *sum* is what matters; a reader (snapshot) may observe a
// momentarily torn view across metrics, but each individual value is exact
// once the writers quiesce — which is what the N-thread exactness test
// asserts.
//
// Compile-time gate: building with -DBBMG_OBS=OFF defines
// BBMG_OBS_ENABLED=0 and every update method compiles to an empty inline
// body — no atomic op, no clock read — while registry, snapshot and
// serialization machinery keep working (all values read as zero), so the
// wire protocol and CLIs behave identically in both builds.
//
// Naming scheme: `bbmg_<subsystem>_<name>`, `_total` suffix for counters,
// unit suffix (`_us`) for histograms.  A fixed label can be baked into the
// registered name with labeled_name("bbmg_x_total", "kind", "foo"), which
// renders as valid Prometheus exposition (`bbmg_x_total{kind="foo"}`).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#ifndef BBMG_OBS_ENABLED
#define BBMG_OBS_ENABLED 1
#endif

namespace bbmg::obs {

/// True in builds that compile instrumentation in (BBMG_OBS=ON).
inline constexpr bool kEnabled = BBMG_OBS_ENABLED != 0;

// -- unregistered primitives ----------------------------------------------
//
// AtomicCounter / AtomicMax are the always-on building blocks: plain
// relaxed-atomic cells with no name and no registry, for *functional*
// accounting that must keep working when instrumentation is compiled out
// (e.g. the serve layer's accepted/rejected submission counts, or the
// streaming trace-stats accumulator).  The registered metric types below
// wrap the same cells behind the BBMG_OBS gate.

class AtomicCounter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  void sub(std::uint64_t n = 1) { v_.fetch_sub(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }
  /// Ordering-explicit variants for the few sites (histogram buckets) where
  /// a cross-cell invariant needs release/acquire instead of relaxed.
  void add_ordered(std::uint64_t n, std::memory_order order) {
    v_.fetch_add(n, order);
  }
  [[nodiscard]] std::uint64_t value_ordered(std::memory_order order) const {
    return v_.load(order);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Relaxed running maximum (high-water marks).
class AtomicMax {
 public:
  void update(std::uint64_t v) {
    std::uint64_t cur = v_.load(std::memory_order_relaxed);
    while (cur < v &&
           !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] std::uint64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

// -- registered metric types -----------------------------------------------

/// Monotone event count.  One relaxed fetch_add per inc().
class Counter {
 public:
  void inc(std::uint64_t n = 1) {
#if BBMG_OBS_ENABLED
    v_.add(n);
#else
    (void)n;
#endif
  }
  [[nodiscard]] std::uint64_t value() const { return v_.value(); }

 private:
  AtomicCounter v_;
};

/// Point-in-time signed level (queue depths, high-water marks via set_max).
class Gauge {
 public:
  void set(std::int64_t v) {
#if BBMG_OBS_ENABLED
    v_.store(v, std::memory_order_relaxed);
#else
    (void)v;
#endif
  }
  void add(std::int64_t n = 1) {
#if BBMG_OBS_ENABLED
    v_.fetch_add(n, std::memory_order_relaxed);
#else
    (void)n;
#endif
  }
  void sub(std::int64_t n = 1) { add(-n); }
  /// Monotone ratchet: keep the largest value ever set (high-water mark).
  void set_max(std::int64_t v) {
#if BBMG_OBS_ENABLED
    std::int64_t cur = v_.load(std::memory_order_relaxed);
    while (cur < v &&
           !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
#else
    (void)v;
#endif
  }
  [[nodiscard]] std::int64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Fixed-bucket histogram: bucket upper bounds are chosen at registration
/// and never change, so observe() is a search over a small immutable array
/// plus one relaxed fetch_add (three including sum and count).
class Histogram {
 public:
  explicit Histogram(std::vector<std::uint64_t> upper_bounds);

  void observe(std::uint64_t v) {
#if BBMG_OBS_ENABLED
    // Order matters for scrapers: count and sum first (relaxed), the bucket
    // cell last with release.  bucket_counts() reads buckets with acquire
    // *before* count, so any bucket increment a snapshot observes implies
    // the matching count increment is visible too — a concurrent scrape can
    // under-count buckets relative to _count but never over-count
    // (sum(buckets) <= _count always; the scrape-consistency test hammers
    // this with N writers).
    count_.add(1);
    sum_.add(v);
    counts_[bucket_index(v)].add_ordered(1, std::memory_order_release);
#else
    (void)v;
#endif
  }

  /// Bucket upper bounds (exclusive of the implicit +Inf overflow bucket).
  [[nodiscard]] const std::vector<std::uint64_t>& upper_bounds() const {
    return bounds_;
  }
  /// Per-bucket counts; size is upper_bounds().size() + 1 (+Inf last).
  [[nodiscard]] std::vector<std::uint64_t> bucket_counts() const;
  [[nodiscard]] std::uint64_t sum() const { return sum_.value(); }
  [[nodiscard]] std::uint64_t count() const { return count_.value(); }

  /// Index of the first bucket whose upper bound is >= v (last bucket for
  /// values above every bound).
  [[nodiscard]] std::size_t bucket_index(std::uint64_t v) const;

 private:
  std::vector<std::uint64_t> bounds_;
  std::unique_ptr<AtomicCounter[]> counts_;  // bounds_.size() + 1 cells
  AtomicCounter sum_;
  AtomicCounter count_;
};

/// Default microsecond latency buckets: 1 us .. ~16 s, powers of 4.
[[nodiscard]] std::vector<std::uint64_t> default_latency_buckets_us();

/// Bake one fixed label into a metric name; renders as valid Prometheus
/// exposition: labeled_name("bbmg_x_total", "kind", "orphan") ==
/// `bbmg_x_total{kind="orphan"}`.
[[nodiscard]] std::string labeled_name(const std::string& base,
                                       const std::string& label,
                                       const std::string& value);

// -- snapshots -------------------------------------------------------------

struct CounterSample {
  std::string name;
  std::uint64_t value{0};
};

struct GaugeSample {
  std::string name;
  std::int64_t value{0};
};

struct HistogramSample {
  std::string name;
  std::vector<std::uint64_t> upper_bounds;
  /// Per-bucket counts, upper_bounds.size() + 1 entries (+Inf last).
  std::vector<std::uint64_t> counts;
  std::uint64_t sum{0};
  std::uint64_t count{0};
};

/// A consistent-enough copy of every registered metric (each value is read
/// once with relaxed ordering), sorted by name within each kind.  This is
/// the unit the serializers (exposition.hpp) and the wire protocol carry.
struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  [[nodiscard]] const CounterSample* find_counter(const std::string& name) const;
  /// Value of a counter, or 0 when absent (wire-friendly convenience).
  [[nodiscard]] std::uint64_t counter_value(const std::string& name) const;
};

// -- the registry ----------------------------------------------------------

/// Owner of all metric objects.  Registration is mutex-protected and
/// idempotent (same name returns the same object); returned references
/// stay valid for the registry's lifetime, so instrumented code resolves
/// its metrics once and caches the references.  instance() is the
/// process-wide registry every subsystem registers into; independent
/// registries can be constructed for tests.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  static MetricsRegistry& instance();

  /// `help` (optional) is the `# HELP` text for the metric's family; the
  /// first non-empty help registered for a base name wins.  Help lives in
  /// the registry only — snapshots and the wire protocol never carry it.
  Counter& counter(const std::string& name, const std::string& help = "");
  Gauge& gauge(const std::string& name, const std::string& help = "");
  /// Registers with the given bounds on first use; later calls return the
  /// existing histogram regardless of `upper_bounds` (bounds are fixed).
  Histogram& histogram(const std::string& name,
                       std::vector<std::uint64_t> upper_bounds,
                       const std::string& help = "");

  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  void note_help(const std::string& name, const std::string& help);

  mutable std::mutex mu_;
  // std::map keeps snapshots deterministically name-sorted; node stability
  // keeps references valid across later registrations.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  /// `# HELP` strings keyed by base name (labels stripped at registration).
  std::map<std::string, std::string> help_;
};

}  // namespace bbmg::obs
