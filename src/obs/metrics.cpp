#include "obs/metrics.hpp"

#include <algorithm>

#include "obs/exposition.hpp"

namespace bbmg::obs {

Histogram::Histogram(std::vector<std::uint64_t> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  counts_ = std::make_unique<AtomicCounter[]>(bounds_.size() + 1);
}

std::size_t Histogram::bucket_index(std::uint64_t v) const {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  return static_cast<std::size_t>(it - bounds_.begin());
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  // Acquire pairs with the release bucket add in observe(): once a bucket
  // increment is visible here, the writer's preceding count_ increment is
  // visible to any later count() read, so sum(buckets) <= count holds for
  // every concurrent snapshot (see the observe() comment).
  std::vector<std::uint64_t> out(bounds_.size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = counts_[i].value_ordered(std::memory_order_acquire);
  }
  return out;
}

std::vector<std::uint64_t> default_latency_buckets_us() {
  // 1 us .. ~16.8 s in powers of 4: 13 buckets + the +Inf overflow.
  std::vector<std::uint64_t> bounds;
  for (std::uint64_t b = 1; b <= 16'777'216; b *= 4) bounds.push_back(b);
  return bounds;
}

std::string labeled_name(const std::string& base, const std::string& label,
                         const std::string& value) {
  // Label values are escaped here (the only place labels are minted), so
  // exposition can pass the label block through untouched.
  return base + "{" + label + "=\"" + escape_label_value(value) + "\"}";
}

const CounterSample* MetricsSnapshot::find_counter(
    const std::string& name) const {
  for (const auto& c : counters) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

std::uint64_t MetricsSnapshot::counter_value(const std::string& name) const {
  const CounterSample* c = find_counter(name);
  return c == nullptr ? 0 : c->value;
}

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  note_help(name, help);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name,
                              const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  note_help(name, help);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<std::uint64_t> upper_bounds,
                                      const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  note_help(name, help);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(upper_bounds));
  return *slot;
}

void MetricsRegistry::note_help(const std::string& name,
                                const std::string& help) {
  if (help.empty()) return;
  // Labeled series share their family's help: strip the baked label block.
  const std::size_t brace = name.find('{');
  const std::string base =
      brace == std::string::npos ? name : name.substr(0, brace);
  auto& slot = help_[base];
  if (slot.empty()) slot = help;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.push_back(CounterSample{name, c->value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.push_back(GaugeSample{name, g->value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    HistogramSample s;
    s.name = name;
    s.upper_bounds = h->upper_bounds();
    s.counts = h->bucket_counts();
    s.sum = h->sum();
    s.count = h->count();
    snap.histograms.push_back(std::move(s));
  }
  return snap;
}

}  // namespace bbmg::obs
