// Live version-space introspection (DESIGN.md "Performance
// observability").
//
// VersionSpaceStats is a lock-free, always-on accumulator describing how a
// learner's version space behaves in production: the current and peak
// hypothesis count, an estimate of the bytes the frontier holds, heap churn
// charged to learning, and two fixed-bucket power-of-two histograms — the
// branching factor offered per message (candidate pairs) and the candidate
// scan length (hypotheses x candidates, the work the branching loop
// actually performs).  These are the numbers the planned hot-path rewrite
// must move, so they are built on the unregistered atomic primitives
// (AtomicCounter/AtomicMax + plain atomics), which keep counting with
// BBMG_OBS=OFF — the VspaceRequest wire surface and `bbmg_client
// vspace` behave identically in both builds.
//
// Writers: the owning learner's worker thread.  Readers: any thread (the
// serve layer snapshots while the worker learns); every cell is an
// independent relaxed atomic, so a snapshot may be momentarily torn across
// cells but each value is exact.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

#include "obs/metrics.hpp"

namespace bbmg {

/// Power-of-two bucket bounds: 1, 2, 4, ..., 2^(kVspaceHistBuckets-1),
/// plus an implicit overflow bucket.
inline constexpr std::size_t kVspaceHistBuckets = 13;  // up to 4096

struct VspaceHistogramSnapshot {
  /// Inclusive upper bounds, kVspaceHistBuckets entries (1, 2, 4, ...).
  std::vector<std::uint64_t> bounds;
  /// Per-bucket counts, bounds.size() + 1 entries (overflow last).
  std::vector<std::uint64_t> counts;
  std::uint64_t sum{0};
  std::uint64_t count{0};

  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

/// Fixed power-of-two histogram on always-on atomics (observe() is two
/// relaxed fetch_adds plus one for the bucket).
class VspaceHistogram {
 public:
  void observe(std::uint64_t v) {
    count_.add(1);
    sum_.add(v);
    buckets_[bucket_index(v)].add(1);
  }

  [[nodiscard]] VspaceHistogramSnapshot snapshot() const;

  /// First bucket whose inclusive bound is >= v (overflow bucket for
  /// values above every bound).
  [[nodiscard]] static std::size_t bucket_index(std::uint64_t v);

 private:
  std::array<obs::AtomicCounter, kVspaceHistBuckets + 1> buckets_;
  obs::AtomicCounter sum_;
  obs::AtomicCounter count_;
};

/// One learner's version-space snapshot, as served over the wire.
struct VspaceSnapshot {
  std::uint64_t periods{0};           ///< periods sampled (incl. quarantined)
  std::uint64_t hypotheses{0};        ///< frontier size after the last period
  std::uint64_t peak_hypotheses{0};   ///< max frontier size ever sampled
  std::uint64_t frontier_bytes{0};    ///< estimated bytes the frontier holds
  std::uint64_t peak_frontier_bytes{0};
  std::uint64_t alloc_bytes{0};       ///< heap bytes charged to learning
  std::uint64_t allocs{0};            ///< allocations charged to learning
  VspaceHistogramSnapshot branching;  ///< candidate pairs per message
  VspaceHistogramSnapshot scan;       ///< hypotheses x candidates per message
};

class VersionSpaceStats {
 public:
  /// After each observed period: the frontier size and its estimated bytes.
  void on_period(std::uint64_t hypotheses, std::uint64_t frontier_bytes) {
    periods_.add(1);
    hypotheses_.store(hypotheses, std::memory_order_relaxed);
    peak_hypotheses_.update(hypotheses);
    frontier_bytes_.store(frontier_bytes, std::memory_order_relaxed);
    peak_frontier_bytes_.update(frontier_bytes);
  }

  /// Per message inside the branching loop: the branching factor offered
  /// (candidate pairs) and the scan length (hypotheses x candidates).
  void on_message(std::uint64_t branching, std::uint64_t scan_len) {
    branching_.observe(branching);
    scan_.observe(scan_len);
  }

  /// Heap churn of one observe() call (alloc_track deltas; zero deltas
  /// when BBMG_ALLOC_TRACK is off keep the wire shape intact).
  void on_alloc(std::uint64_t bytes, std::uint64_t count) {
    alloc_bytes_.add(bytes);
    allocs_.add(count);
  }

  [[nodiscard]] VspaceSnapshot snapshot() const;

 private:
  obs::AtomicCounter periods_;
  std::atomic<std::uint64_t> hypotheses_{0};
  obs::AtomicMax peak_hypotheses_;
  std::atomic<std::uint64_t> frontier_bytes_{0};
  obs::AtomicMax peak_frontier_bytes_;
  obs::AtomicCounter alloc_bytes_;
  obs::AtomicCounter allocs_;
  VspaceHistogram branching_;
  VspaceHistogram scan_;
};

}  // namespace bbmg
