// In-process observability, layer 3: snapshot serializers.
//
// Two renderings of a MetricsSnapshot:
//   * Prometheus text exposition (`to_prometheus`): samples grouped into
//     metric families, each preceded by its `# TYPE` line (and `# HELP`
//     when help text is supplied), counters/gauges as `name value` lines,
//     histograms as cumulative `_bucket` series with `le` labels ending in
//     the explicit `+Inf` bucket plus `_sum`/`_count` — scrape-compatible
//     without pulling in any client library;
//   * a JSON document (`to_json`): the same data as one object, for the
//     stats CLI and for machine diffing in tests (golden files).
// Both are deterministic: families are emitted name-sorted and samples
// name-sorted within a family, so output is diff- and golden-test-stable.
#pragma once

#include <map>
#include <string>

#include "obs/metrics.hpp"

namespace bbmg::obs {

/// `help` maps base metric names to `# HELP` text; pass nullptr to emit
/// `# TYPE` only.
[[nodiscard]] std::string to_prometheus(
    const MetricsSnapshot& snapshot,
    const std::map<std::string, std::string>* help = nullptr);
[[nodiscard]] std::string to_json(const MetricsSnapshot& snapshot);

/// Map an arbitrary runtime-registered base name onto the Prometheus
/// metric-name alphabet [a-zA-Z0-9_:]: every other byte becomes '_', and a
/// leading digit gains a '_' prefix.  Idempotent for already-valid names.
[[nodiscard]] std::string sanitize_metric_name(const std::string& base);

/// Escape a label value per the exposition format: backslash, double
/// quote, and newline become \\, \" and \n.
[[nodiscard]] std::string escape_label_value(const std::string& value);

}  // namespace bbmg::obs
