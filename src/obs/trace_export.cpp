#include "obs/trace_export.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "obs/trace_context.hpp"

namespace bbmg::obs {

namespace {

void append_json_escaped(std::ostringstream& os, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      os << buf;
    } else {
      os << c;
    }
  }
}

void append_hex_id(std::ostringstream& os, std::uint64_t id) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(id));
  os << buf;
}

/// One complete event, plus its flow event when the span is a flow
/// endpoint.  `first` tracks comma placement across the whole array.
void append_span(std::ostringstream& os, const ExportSpan& s, bool& first) {
  const double ts_us = static_cast<double>(s.start_ns) / 1e3;
  const double dur_us = static_cast<double>(s.duration_ns) / 1e3;
  os << (first ? "" : ",\n");
  first = false;
  os << "  {\"name\": \"";
  append_json_escaped(os, s.name);
  os << "\", \"ph\": \"X\", \"pid\": " << s.pid << ", \"tid\": " << s.tid
     << ", \"ts\": " << ts_us << ", \"dur\": " << dur_us;
  const bool has_ids = s.trace_id != 0;
  const bool has_hw = (s.cycles | s.instructions) != 0;
  if (has_ids || has_hw) {
    os << ", \"args\": {";
    if (has_ids) {
      os << "\"trace\": \"";
      append_hex_id(os, s.trace_id);
      os << "\", \"span\": \"";
      append_hex_id(os, s.span_id);
      os << "\", \"parent\": \"";
      append_hex_id(os, s.parent_id);
      os << "\"";
    }
    if (has_hw) {
      if (has_ids) os << ", ";
      os << "\"cycles\": " << s.cycles
         << ", \"instructions\": " << s.instructions;
      if (s.cycles != 0) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.3f",
                      static_cast<double>(s.instructions) /
                          static_cast<double>(s.cycles));
        os << ", \"ipc\": " << buf;
      }
      os << ", \"cache_misses\": " << s.cache_misses
         << ", \"branch_misses\": " << s.branch_misses;
    }
    os << "}";
  }
  os << "}";
  if (s.flow == static_cast<std::uint8_t>(FlowDir::None) || s.trace_id == 0) {
    return;
  }
  // Flow arrows bind on (cat, id, name): a start at the Out span's end, a
  // binding-enclosing finish at the In span's start.
  const bool out = s.flow == static_cast<std::uint8_t>(FlowDir::Out);
  os << ",\n  {\"name\": \"period\", \"cat\": \"flow\", \"ph\": \""
     << (out ? 's' : 'f') << "\"" << (out ? "" : ", \"bp\": \"e\"")
     << ", \"id\": \"";
  append_hex_id(os, s.trace_id);
  os << "\", \"pid\": " << s.pid << ", \"tid\": " << s.tid
     << ", \"ts\": " << (out ? ts_us + dur_us : ts_us) << "}";
}

}  // namespace

std::string to_chrome_trace_json(const std::vector<ExportSpan>& spans) {
  // chrome://tracing wants timestamps/durations in microseconds; fractional
  // microseconds keep sub-us spans visible.
  std::ostringstream os;
  os << "[\n";
  bool first = true;
  for (const ExportSpan& s : spans) append_span(os, s, first);
  os << "\n]\n";
  return os.str();
}

void write_chrome_trace(const std::vector<ExportSpan>& spans,
                        const std::string& path) {
  std::ofstream ofs(path);
  BBMG_REQUIRE(ofs.good(), "cannot open chrome trace file for writing: " + path);
  ofs << to_chrome_trace_json(spans);
  BBMG_REQUIRE(ofs.good(), "failed writing chrome trace file: " + path);
}

}  // namespace bbmg::obs
