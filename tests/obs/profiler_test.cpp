// PhaseProfiler: sampling cadence, counter registration, and the
// attribution math that bench_obs and the health surfaces rely on.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "support/metrics.hpp"

namespace bbmg::obs {
namespace {

TEST(PhaseProfiler, SamplesOneInStride) {
  if (!kEnabled) GTEST_SKIP() << "instrumentation compiled out";
  PhaseProfiler prof("bbmg_test_stride", "bbmg_test_stride_hw", {"a"});
  prof.set_stride(4);
  std::uint64_t sampled = 0;
  for (int i = 0; i < 400; ++i) {
    if (prof.sample()) ++sampled;
  }
  EXPECT_EQ(sampled, 100u);
}

TEST(PhaseProfiler, StrideZeroDisablesSampling) {
  PhaseProfiler prof("bbmg_test_off", "bbmg_test_off_hw", {"a"});
  prof.set_stride(0);
  for (int i = 0; i < 64; ++i) EXPECT_FALSE(prof.sample());
  EXPECT_EQ(prof.units(), 0u);
}

TEST(PhaseProfiler, AttributionMathAndRegisteredCounters) {
  PhaseProfiler prof("bbmg_test_attr", "bbmg_test_attr_hw",
                     {"parse", "merge"});
  prof.set_stride(1);

  // Two sampled units: phases cover 900 of 1000 ns total.
  prof.record(0, 300, 2);
  prof.record(1, 150);
  prof.record_unit(500);
  prof.record(0, 250);
  prof.record(1, 200);
  prof.record_unit(500);

  if (!kEnabled) {
    // With instrumentation compiled out, record() is a no-op and the
    // fraction stays 0 — callers must not divide by units().
    EXPECT_EQ(prof.total_ns(), 0u);
    EXPECT_DOUBLE_EQ(attributed_fraction(prof), 0.0);
    return;
  }

  EXPECT_EQ(prof.num_phases(), 2u);
  EXPECT_EQ(prof.phase_name(0), "parse");
  EXPECT_EQ(prof.phase_ns(0), 550u);
  EXPECT_EQ(phase_counter("bbmg_test_attr_phase_calls_total", "parse"), 3u);
  EXPECT_EQ(prof.phase_ns(1), 350u);
  EXPECT_EQ(prof.units(), 2u);
  EXPECT_EQ(prof.total_ns(), 1000u);
  EXPECT_DOUBLE_EQ(attributed_fraction(prof), 0.9);

  // The same numbers are visible through the process-wide registry, which
  // is what the scraper and exposition read.
  MetricsRegistry& reg = MetricsRegistry::instance();
  EXPECT_EQ(
      reg.counter("bbmg_test_attr_phase_ns_total{phase=\"parse\"}").value(),
      550u);
  EXPECT_EQ(reg.counter("bbmg_test_attr_profiled_ns_total").value(), 1000u);
}

TEST(PhaseProfiler, ZeroSamplesGivesZeroFraction) {
  PhaseProfiler prof("bbmg_test_empty", "bbmg_test_empty_hw", {"a"});
  EXPECT_DOUBLE_EQ(attributed_fraction(prof), 0.0);
}

}  // namespace
}  // namespace bbmg::obs
