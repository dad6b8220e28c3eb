#include "monitor/ts_store.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace bbmg::monitor {

namespace {

// LEB128-style varint + zigzag, the classic delta-encoding pair: small
// deltas (the steady-state case — a 1 s scrape tick is dt=1000, most
// counters move by a few units) cost one or two bytes.

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t get_varint(const std::vector<std::uint8_t>& in,
                         std::size_t& pos) {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    BBMG_REQUIRE(pos < in.size() && shift < 64,
                 "ts store: corrupt varint in encoded block");
    const std::uint8_t b = in[pos++];
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
  }
}

std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

}  // namespace

void Series::append(std::uint64_t at_ms, std::int64_t value) {
  if (has_last_ && at_ms < last_.at_ms) at_ms = last_.at_ms;
  if (active_count_ == 0) {
    // Block head: absolute timestamp, zigzag value (gauges are signed).
    put_varint(active_, at_ms);
    put_varint(active_, zigzag(value));
  } else {
    put_varint(active_, at_ms - last_.at_ms);
    put_varint(active_, zigzag(value - last_.value));
  }
  last_ = TsSample{at_ms, value};
  has_last_ = true;
  if (++active_count_ >= kBlockSamples) {
    sealed_ = std::move(active_);
    sealed_count_ = active_count_;
    active_.clear();
    active_count_ = 0;
  }
}

void Series::decode_block(const std::vector<std::uint8_t>& block,
                          std::size_t count, std::uint64_t since_ms,
                          std::vector<TsSample>& out) {
  std::size_t pos = 0;
  TsSample cur{};
  for (std::size_t i = 0; i < count; ++i) {
    if (i == 0) {
      cur.at_ms = get_varint(block, pos);
      cur.value = unzigzag(get_varint(block, pos));
    } else {
      cur.at_ms += get_varint(block, pos);
      cur.value += unzigzag(get_varint(block, pos));
    }
    if (cur.at_ms >= since_ms) out.push_back(cur);
  }
}

std::vector<TsSample> Series::samples_since(std::uint64_t since_ms) const {
  std::vector<TsSample> out;
  out.reserve(num_samples());
  if (sealed_count_ != 0) decode_block(sealed_, sealed_count_, since_ms, out);
  if (active_count_ != 0) decode_block(active_, active_count_, since_ms, out);
  return out;
}

std::optional<TsSample> Series::latest() const {
  if (!has_last_) return std::nullopt;
  return last_;
}

void TsStore::append(const std::string& endpoint, const std::string& metric,
                     std::uint64_t at_ms, std::int64_t value) {
  std::lock_guard<std::mutex> lock(mu_);
  series_[Key{endpoint, metric}].append(at_ms, value);
}

std::vector<TsSample> TsStore::samples_since(const std::string& endpoint,
                                             const std::string& metric,
                                             std::uint64_t since_ms) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = series_.find(Key{endpoint, metric});
  if (it == series_.end()) return {};
  return it->second.samples_since(since_ms);
}

std::optional<TsSample> TsStore::latest(const std::string& endpoint,
                                        const std::string& metric) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = series_.find(Key{endpoint, metric});
  if (it == series_.end()) return std::nullopt;
  return it->second.latest();
}

std::vector<std::string> TsStore::endpoints_with(
    const std::string& metric) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (const auto& [key, series] : series_) {
    if (key.second == metric) out.push_back(key.first);
  }
  return out;
}

std::vector<std::string> TsStore::metrics_with_prefix(
    const std::string& endpoint, const std::string& prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  // Keys sort by (endpoint, metric), so the endpoint's metrics are one
  // contiguous range.
  for (auto it = series_.lower_bound(Key{endpoint, prefix});
       it != series_.end() && it->first.first == endpoint; ++it) {
    if (it->first.second.compare(0, prefix.size(), prefix) != 0) break;
    out.push_back(it->first.second);
  }
  return out;
}

TsStoreStats TsStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  TsStoreStats stats;
  stats.series = series_.size();
  for (const auto& [key, series] : series_) {
    stats.samples += series.num_samples();
    stats.encoded_bytes += series.encoded_bytes();
  }
  return stats;
}

}  // namespace bbmg::monitor
