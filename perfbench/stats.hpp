// Metric math of the benchmark of record, kept apart from driver.cpp so
// stats_test.cpp can pin it down: percentiles and the sample-count rule,
// span self time, open-loop due-time latency, backlog growth and the
// rate-ladder stop rule.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; NaN when
/// the sample is empty.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

/// Samples strictly beyond the nearest-rank q-th percentile.
inline std::size_t samples_beyond(std::size_t n, double q) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return n > rank ? n - rank : 0;
}

/// A percentile is supported when at least ten samples lie beyond it.
inline bool percentile_supported(std::size_t n, double q) {
  return samples_beyond(n, q) >= 10;
}

inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// A tail percentile that one burst cannot set: the median, over equal
/// consecutive windows of a time-ordered sample, of each window's
/// q-percentile.  It uses as many windows (at most 8) as keep the
/// percentile supported in each; with too few samples for two windows it is
/// the plain percentile.
inline double windowed_percentile(const std::vector<double>& v, double q) {
  std::size_t windows = 8;
  while (windows > 1 && !percentile_supported(v.size() / windows, q)) --windows;
  const std::size_t len = v.size() / windows;
  std::vector<double> per;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto from = v.begin() + static_cast<std::ptrdiff_t>(w * len);
    const auto to = w + 1 == windows ? v.end() : from + static_cast<std::ptrdiff_t>(len);
    per.push_back(percentile(std::vector<double>(from, to), q));
  }
  return median(per);
}

/// The shared host this benchmark runs on changes speed for seconds at a
/// time (a fixed CPU loop reads +-30% from one second to the next).  Split a
/// time-ordered sample into `windows` equal consecutive windows and return
/// the smallest per-window value of `stat`: the figure of the run's fastest
/// stretch, which a slow stretch cannot inflate.
template <typename Stat>
double fastest_window(const std::vector<double>& v, std::size_t windows, Stat stat) {
  windows = std::max<std::size_t>(1, std::min(windows, v.size()));
  const std::size_t len = v.size() / windows;
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t w = 0; w < windows; ++w) {
    const auto from = v.begin() + static_cast<std::ptrdiff_t>(w * len);
    const auto to = w + 1 == windows ? v.end() : from + static_cast<std::ptrdiff_t>(len);
    best = std::min(best, stat(std::vector<double>(from, to)));
  }
  return v.empty() ? std::numeric_limits<double>::quiet_NaN() : best;
}

/// One timed interval recorded by the benchmark around a call into a layer.
/// parent == 0 marks a root; ids are assigned from 1.
struct Span {
  std::string name;
  std::uint64_t id{0};
  std::uint64_t parent{0};
  std::uint64_t start_ns{0};
  std::uint64_t end_ns{0};
};

/// Duration of span `id` minus the part of its interval covered by its
/// direct children (overlapping children are counted once, and child time
/// outside the parent's interval is ignored).
inline std::uint64_t self_time_ns(const std::vector<Span>& spans,
                                  std::uint64_t id) {
  const Span* self = nullptr;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> kids;
  for (const Span& s : spans) {
    if (s.id == id) self = &s;
  }
  if (self == nullptr || self->end_ns <= self->start_ns) return 0;
  for (const Span& s : spans) {
    if (s.parent != id) continue;
    const std::uint64_t a = std::max(s.start_ns, self->start_ns);
    const std::uint64_t b = std::min(s.end_ns, self->end_ns);
    if (a < b) kids.emplace_back(a, b);
  }
  std::sort(kids.begin(), kids.end());
  std::uint64_t covered = 0;
  std::uint64_t reach = self->start_ns;
  for (const auto& [a, b] : kids) {
    const std::uint64_t from = std::max(a, reach);
    if (b > from) covered += b - from;
    reach = std::max(reach, b);
  }
  return (self->end_ns - self->start_ns) - covered;
}

/// Open-loop schedule paced in events: operation i is due once the events
/// of every earlier operation have been sent at `events_per_s`, so the
/// schedule never waits for the system under test.
inline std::vector<std::uint64_t> due_times_ns(
    std::uint64_t start_ns, const std::vector<std::size_t>& events_per_op,
    double events_per_s) {
  std::vector<std::uint64_t> due;
  due.reserve(events_per_op.size());
  double events = 0.0;
  for (const std::size_t e : events_per_op) {
    due.push_back(start_ns + static_cast<std::uint64_t>(events / events_per_s * 1e9));
    events += static_cast<double>(e);
  }
  return due;
}

/// Latency of each operation from its due time (not its send time), so a
/// stall charges its wait to every operation queued behind it.
inline std::vector<double> due_latencies_ms(
    const std::vector<std::uint64_t>& due_ns,
    const std::vector<std::uint64_t>& done_ns) {
  std::vector<double> out;
  for (std::size_t i = 0; i < due_ns.size() && i < done_ns.size(); ++i) {
    out.push_back(done_ns[i] > due_ns[i]
                      ? static_cast<double>(done_ns[i] - due_ns[i]) / 1e6
                      : 0.0);
  }
  return out;
}

/// How late the generator itself ran for each send: start of the send
/// minus the later of its due time and the end of the previous send.  Time
/// blocked inside a send (backpressure from the system) is the system's,
/// not the generator's.
inline std::vector<double> generator_lateness_ms(
    const std::vector<std::uint64_t>& due_ns,
    const std::vector<std::uint64_t>& send_start_ns,
    const std::vector<std::uint64_t>& send_end_ns) {
  std::vector<double> out;
  for (std::size_t i = 0; i < due_ns.size() && i < send_start_ns.size(); ++i) {
    std::uint64_t ready = due_ns[i];
    if (i > 0) ready = std::max(ready, send_end_ns[i - 1]);
    out.push_back(send_start_ns[i] > ready
                      ? static_cast<double>(send_start_ns[i] - ready) / 1e6
                      : 0.0);
  }
  return out;
}

/// Backlog samples are (time, operations due but not yet done).  The
/// backlog grows when the median of the last third of the samples exceeds
/// twice the median of the first third plus `slack` operations; medians, so
/// a transient stall does not count as growth.
inline bool backlog_grows(
    const std::vector<std::pair<std::uint64_t, double>>& samples,
    double slack) {
  if (samples.size() < 3) return false;
  const std::size_t third = samples.size() / 3;
  std::vector<double> first, last;
  for (std::size_t i = 0; i < third; ++i) {
    first.push_back(samples[i].second);
    last.push_back(samples[samples.size() - 1 - i].second);
  }
  return median(last) > 2.0 * median(first) + slack;
}

/// One measured rung of a fixed rate ladder.
struct Rung {
  double rate_eps{0.0};
  double p99_ms{0.0};
  bool backlog_grew{false};
  /// The open-loop generator kept its schedule (its p99 lateness stayed
  /// under one inter-send gap); an invalid rung says nothing about the
  /// system and stops the climb.
  bool valid{true};
};

inline bool rung_passes(const Rung& r, double p99_limit_ms) {
  return r.valid && !r.backlog_grew && r.p99_ms <= p99_limit_ms;
}

/// Index of the highest rung met before the first failure (climbing stops
/// there even if a later rung would pass); -1 when the first rung fails.
inline int sustained_rung(const std::vector<Rung>& rungs, double p99_limit_ms) {
  int best = -1;
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    if (!rung_passes(rungs[i], p99_limit_ms)) break;
    best = static_cast<int>(i);
  }
  return best;
}

}  // namespace perfbench
