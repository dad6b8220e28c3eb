// PhaseProfiler stride-scaling exactness: at stride S, each sampled unit's
// record stands in for the S-1 unsampled units around it, so after N = K*S
// units the registered counters equal the stride-1 truth exactly — calls
// N, nanoseconds N*ns_per_unit.  (The regression this pins: earlier
// versions recorded only the raw sampled counts, undercounting every rate
// by the stride.)
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/perf/perf_counters.hpp"
#include "obs/profiler.hpp"
#include "support/metrics.hpp"

namespace bbmg::obs {
namespace {

TEST(ProfilerStride, CountsAreExactAtStrides1_16_256) {
  if (!kEnabled) GTEST_SKIP() << "BBMG_OBS=OFF: sample() never fires";

  constexpr std::uint64_t kNsPerUnit = 1000;
  constexpr std::uint64_t kUnits = 1024;  // divisible by every stride below
  for (const std::uint32_t stride : {1u, 16u, 256u}) {
    // Prefixes are registry-global, so each profiler needs its own.
    const std::string prefix = "test_stride_" + std::to_string(stride);
    PhaseProfiler profiler(prefix, prefix + "_hw", {"alpha", "beta"});
    profiler.set_stride(stride);
    ASSERT_EQ(profiler.stride(), stride);

    std::uint64_t sampled = 0;
    for (std::uint64_t i = 0; i < kUnits; ++i) {
      if (!profiler.sample()) continue;
      ++sampled;
      profiler.record(0, kNsPerUnit);
      profiler.record(1, 3 * kNsPerUnit, /*calls=*/2);
      profiler.record_unit(4 * kNsPerUnit);
    }
    EXPECT_EQ(sampled, kUnits / stride) << "stride " << stride;

    // Stride-scaled counters reproduce the stride-1 totals exactly.
    EXPECT_EQ(profiler.phase_ns(0), kUnits * kNsPerUnit) << "stride " << stride;
    EXPECT_EQ(phase_counter(prefix + "_phase_calls_total", "alpha"), kUnits)
        << "stride " << stride;
    EXPECT_EQ(profiler.phase_ns(1), kUnits * 3 * kNsPerUnit);
    EXPECT_EQ(phase_counter(prefix + "_phase_calls_total", "beta"),
              kUnits * 2);
    EXPECT_EQ(profiler.units(), kUnits);
    EXPECT_EQ(profiler.total_ns(), kUnits * 4 * kNsPerUnit);
    EXPECT_DOUBLE_EQ(attributed_fraction(profiler), 1.0);
  }
}

TEST(ProfilerStride, UnitLapsTileAndScaleAtStrides1_16_256) {
  if (!kEnabled) GTEST_SKIP() << "BBMG_OBS=OFF: sample() never fires";

  constexpr std::uint64_t kUnits = 1024;
  for (const std::uint32_t stride : {1u, 16u, 256u}) {
    const std::string prefix = "test_stride_unit_" + std::to_string(stride);
    PhaseProfiler profiler(prefix, prefix + "_hw", {"alpha", "beta"});
    profiler.set_stride(stride);
    for (std::uint64_t i = 0; i < kUnits; ++i) {
      PhaseProfiler::Unit unit(profiler);
      unit.lap(0);
      unit.lap(1, /*calls=*/2);
    }
    EXPECT_EQ(profiler.units(), kUnits) << "stride " << stride;
    EXPECT_EQ(phase_counter(prefix + "_phase_calls_total", "alpha"), kUnits)
        << "stride " << stride;
    EXPECT_EQ(phase_counter(prefix + "_phase_calls_total", "beta"), 2 * kUnits)
        << "stride " << stride;
    // The laps tile each unit, so the named phases carry its whole time.
    EXPECT_EQ(profiler.phase_ns(0) + profiler.phase_ns(1), profiler.total_ns())
        << "stride " << stride;
  }
}

TEST(ProfilerStride, RegisteredCountersCarryTheScaledTotals) {
  if (!kEnabled) GTEST_SKIP() << "BBMG_OBS=OFF";

  PhaseProfiler profiler("test_stride_metrics", "test_stride_metrics_hw",
                         {"only"});
  profiler.set_stride(8);
  for (int i = 0; i < 64; ++i) {
    if (profiler.sample()) {
      profiler.record(0, 100);
      profiler.record_unit(100);
    }
  }
  const MetricsSnapshot snap = MetricsRegistry::instance().snapshot();
  EXPECT_EQ(snap.counter_value(
                "test_stride_metrics_phase_ns_total{phase=\"only\"}"),
            6400u);
  EXPECT_EQ(snap.counter_value(
                "test_stride_metrics_phase_calls_total{phase=\"only\"}"),
            64u);
  EXPECT_EQ(snap.counter_value("test_stride_metrics_profiled_units_total"),
            64u);
}

TEST(ProfilerStride, StrideZeroDisablesSampling) {
  if (!kEnabled) GTEST_SKIP() << "BBMG_OBS=OFF";

  PhaseProfiler profiler("test_stride_zero", "test_stride_zero_hw", {"p"});
  profiler.set_stride(0);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(profiler.sample());
  // An unsampled Unit's laps and destructor record nothing.
  for (int i = 0; i < 100; ++i) PhaseProfiler::Unit(profiler).lap(0);
  EXPECT_EQ(profiler.units(), 0u);
  EXPECT_EQ(phase_counter("test_stride_zero_phase_calls_total", "p"), 0u);
  EXPECT_EQ(profiler.total_ns(), 0u);
}

TEST(ProfilerStride, HwAndAllocDimensionsScaleIdentically) {
  if (!kEnabled) GTEST_SKIP() << "BBMG_OBS=OFF";

  PhaseProfiler profiler("test_stride_dims", "test_stride_dims_hw", {"p"});
  profiler.set_stride(16);

  PerfDelta d;
  d.cycles = 10;
  d.instructions = 30;
  for (int i = 0; i < 32; ++i) {
    if (profiler.sample()) {
      profiler.record_hw(0, d);
      profiler.record_alloc(0, /*bytes=*/128, /*count=*/4);
    }
  }
  // 2 sampled units x scale 16.
  EXPECT_EQ(phase_counter("test_stride_dims_hw_cycles_total", "p"), 320u);
  EXPECT_EQ(phase_counter("test_stride_dims_hw_instructions_total", "p"),
            960u);
  EXPECT_EQ(phase_counter("test_stride_dims_phase_alloc_bytes_total", "p"),
            4096u);
  EXPECT_EQ(phase_counter("test_stride_dims_phase_allocs_total", "p"), 128u);
}

}  // namespace
}  // namespace bbmg::obs
