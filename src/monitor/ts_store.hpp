// In-memory time-series store for the telemetry plane (DESIGN.md
// "Telemetry plane").  One Series per (endpoint, metric) pair, each a ring
// of two delta-encoded blocks: samples append as zigzag-varint
// (delta-time-ms, delta-value) pairs against the previous sample, the
// first sample of a block is stored absolute, and when the active block
// reaches kBlockSamples the older block is dropped.  At a 1 s scrape
// interval a block spans ~8.5 minutes, so the store always holds the
// 5-minute slow SLO window and costs ~2-3 bytes per sample for the flat
// counters that dominate a scrape.
//
// Values are signed 64-bit: counters and histogram bucket cumulatives ride
// as non-negative, gauges keep their sign.  All reads decode on demand —
// the monitor evaluates a handful of series per tick, so decode cost is
// noise next to the scrape RTT; the encode path is the one the per-sample
// budget cares about, and it is a few shifts per sample.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace bbmg::monitor {

struct TsSample {
  std::uint64_t at_ms{0};
  std::int64_t value{0};
};

/// Samples per encoded block; two blocks per series, so retention is
/// between kBlockSamples and 2*kBlockSamples samples.
inline constexpr std::size_t kBlockSamples = 512;

class Series {
 public:
  /// Append one sample.  Timestamps must be non-decreasing; a sample older
  /// than the previous one is clamped to the previous timestamp (scrape
  /// threads pass one clock, so this only rounds off ties).
  void append(std::uint64_t at_ms, std::int64_t value);

  /// All retained samples with at_ms >= since_ms, oldest first.
  [[nodiscard]] std::vector<TsSample> samples_since(
      std::uint64_t since_ms) const;

  [[nodiscard]] std::optional<TsSample> latest() const;
  [[nodiscard]] std::size_t num_samples() const {
    return sealed_count_ + active_count_;
  }
  [[nodiscard]] std::size_t encoded_bytes() const {
    return sealed_.size() + active_.size();
  }

 private:
  static void decode_block(const std::vector<std::uint8_t>& block,
                           std::size_t count, std::uint64_t since_ms,
                           std::vector<TsSample>& out);

  std::vector<std::uint8_t> sealed_;  // older full block (may be empty)
  std::vector<std::uint8_t> active_;
  std::size_t sealed_count_{0};
  std::size_t active_count_{0};
  TsSample last_{};  // delta base for the next append
  bool has_last_{false};
};

struct TsStoreStats {
  std::size_t series{0};
  std::size_t samples{0};
  std::size_t encoded_bytes{0};
};

/// The store: a mutex-protected map of (endpoint, metric) -> Series.  The
/// scrape path appends; the SLO/aggregation layers read.  Contention is a
/// non-issue at scrape cadence, so one lock keeps the invariants obvious.
class TsStore {
 public:
  void append(const std::string& endpoint, const std::string& metric,
              std::uint64_t at_ms, std::int64_t value);

  [[nodiscard]] std::vector<TsSample> samples_since(
      const std::string& endpoint, const std::string& metric,
      std::uint64_t since_ms) const;
  [[nodiscard]] std::optional<TsSample> latest(
      const std::string& endpoint, const std::string& metric) const;

  /// Endpoints that carry a series for `metric`.
  [[nodiscard]] std::vector<std::string> endpoints_with(
      const std::string& metric) const;
  /// Metrics on `endpoint` whose name starts with `prefix`.
  [[nodiscard]] std::vector<std::string> metrics_with_prefix(
      const std::string& endpoint, const std::string& prefix) const;

  [[nodiscard]] TsStoreStats stats() const;

 private:
  using Key = std::pair<std::string, std::string>;  // (endpoint, metric)
  mutable std::mutex mu_;
  std::map<Key, Series> series_;
};

}  // namespace bbmg::monitor
