// Lookups over the observability API that only tests need: a snapshot's
// gauges and histograms by name, the registry's size, and the profiler's
// per-phase counters read the way a scraper reads them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"

namespace bbmg::obs {

inline const GaugeSample* find_gauge(const MetricsSnapshot& snap,
                                     const std::string& name) {
  for (const auto& g : snap.gauges) {
    if (g.name == name) return &g;
  }
  return nullptr;
}

inline const HistogramSample* find_histogram(const MetricsSnapshot& snap,
                                             const std::string& name) {
  for (const auto& h : snap.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

inline std::size_t num_metrics(const MetricsRegistry& reg) {
  const MetricsSnapshot snap = reg.snapshot();
  return snap.counters.size() + snap.gauges.size() + snap.histograms.size();
}

/// `<family>{phase="<phase>"}` in a snapshot of the process registry, e.g.
/// phase_counter("bbmg_learner_phase_calls_total", "branch").
inline std::uint64_t phase_counter(const std::string& family,
                                   const std::string& phase) {
  const MetricsSnapshot snap = MetricsRegistry::instance().snapshot();
  return snap.counter_value(labeled_name(family, "phase", phase));
}

/// Share of the profiled unit time that the named phases account for (0
/// when nothing was sampled).
inline double attributed_fraction(const PhaseProfiler& profiler) {
  if (profiler.total_ns() == 0) return 0.0;
  std::uint64_t named = 0;
  for (std::size_t i = 0; i < profiler.num_phases(); ++i) {
    named += profiler.phase_ns(i);
  }
  return static_cast<double>(named) / static_cast<double>(profiler.total_ns());
}

}  // namespace bbmg::obs
