// Chrome trace export: render spans as the JSON array format understood
// by chrome://tracing and https://ui.perfetto.dev.
//
// Each ExportSpan renders as one complete ("ph":"X") event.  It carries a
// process id and an owned name, so spans pulled from another process over
// the wire (TraceDump) merge with local ones into one causally-linked
// timeline.  Spans carrying trace ids emit their ids as event args, and
// spans marked FlowDir::Out/In additionally emit Chrome flow events
// ("ph":"s"/"f", id == trace id) — the arrows that connect a client's send
// to the server's stages across the process boundary.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/span.hpp"

namespace bbmg::obs {

/// A span ready for export: SpanRecord plus a process id and an owned
/// name (wire spans do not share the process's static strings).
struct ExportSpan {
  std::string name;
  std::uint32_t pid{1};
  std::uint32_t tid{0};
  std::uint64_t start_ns{0};
  std::uint64_t duration_ns{0};
  std::uint64_t trace_id{0};
  std::uint64_t span_id{0};
  std::uint64_t parent_id{0};
  std::uint8_t flow{0};  // FlowDir
  /// Hardware-counter deltas (zero when uncounted); rendered as event args
  /// (cycles/instructions/ipc/cache_misses/branch_misses).
  std::uint64_t cycles{0};
  std::uint64_t instructions{0};
  std::uint64_t cache_misses{0};
  std::uint64_t branch_misses{0};
};

[[nodiscard]] std::string to_chrome_trace_json(
    const std::vector<ExportSpan>& spans);

/// Write an already-merged span batch to `path` (the client/server merged
/// export).  Throws bbmg::Error if the file cannot be written.
void write_chrome_trace(const std::vector<ExportSpan>& spans,
                        const std::string& path);

}  // namespace bbmg::obs
