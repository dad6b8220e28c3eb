#include "trace/binary_codec.hpp"

#include <fstream>
#include <sstream>

#include "common/error.hpp"

namespace bbmg {

// -- writers ---------------------------------------------------------------

void append_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}

void append_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void append_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void append_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void append_string(std::vector<std::uint8_t>& out, const std::string& s) {
  BBMG_REQUIRE(s.size() <= kMaxNameLength, "string too long for codec");
  append_u16(out, static_cast<std::uint16_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

void append_event(std::vector<std::uint8_t>& out, const Event& e) {
  append_u8(out, static_cast<std::uint8_t>(e.kind));
  const bool task_event =
      e.kind == EventKind::TaskStart || e.kind == EventKind::TaskEnd;
  append_u32(out, task_event ? e.task.value : e.can_id);
  append_u64(out, e.time);
}

// -- reader ----------------------------------------------------------------

void ByteReader::need(std::size_t n) const {
  if (size_ - pos_ < n) {
    std::ostringstream os;
    os << "binary codec: truncated input (need " << n << " bytes at offset "
       << pos_ << ", have " << (size_ - pos_) << ")";
    raise(os.str());
  }
}

std::uint8_t ByteReader::read_u8() {
  need(1);
  return data_[pos_++];
}

std::uint16_t ByteReader::read_u16() {
  need(2);
  std::uint16_t v = static_cast<std::uint16_t>(data_[pos_]) |
                    static_cast<std::uint16_t>(data_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

std::uint32_t ByteReader::read_u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::read_u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 8;
  return v;
}

std::string ByteReader::read_string() {
  const std::uint16_t len = read_u16();
  if (len > kMaxNameLength) {
    raise("binary codec: string length exceeds sanity cap");
  }
  need(len);
  std::string s(reinterpret_cast<const char*>(data_ + pos_), len);
  pos_ += len;
  return s;
}

std::uint32_t ByteReader::read_count(std::size_t cap,
                                     std::size_t min_item_bytes,
                                     std::string_view cap_error) {
  const std::uint32_t count = read_u32();
  if (count > cap) raise(std::string(cap_error));
  if (remaining() / min_item_bytes < count) {
    std::ostringstream os;
    os << "binary codec: truncated input (count " << count << " of "
       << min_item_bytes << "-byte items at offset " << pos_ << ", have "
       << remaining() << " bytes)";
    raise(os.str());
  }
  return count;
}

Event ByteReader::read_event() {
  const std::uint8_t kind = read_u8();
  if (kind > static_cast<std::uint8_t>(EventKind::MsgFall)) {
    std::ostringstream os;
    os << "binary codec: invalid event kind " << int{kind} << " at offset "
       << (pos_ - 1);
    raise(os.str());
  }
  const std::uint32_t id = read_u32();
  const std::uint64_t time = read_u64();
  Event e;
  e.time = time;
  e.kind = static_cast<EventKind>(kind);
  if (e.kind == EventKind::TaskStart || e.kind == EventKind::TaskEnd) {
    e.task = TaskId{id};
  } else {
    e.can_id = id;
  }
  return e;
}

// -- task-name table -------------------------------------------------------

void append_task_names(std::vector<std::uint8_t>& out,
                       const std::vector<std::string>& names) {
  BBMG_REQUIRE(names.size() <= kMaxTasks, "too many tasks for codec");
  append_u16(out, static_cast<std::uint16_t>(names.size()));
  for (const std::string& n : names) append_string(out, n);
}

std::vector<std::string> read_task_names(ByteReader& r) {
  const std::uint16_t n = r.read_u16();
  if (n > kMaxTasks) raise("binary codec: task count exceeds sanity cap");
  std::vector<std::string> names;
  names.reserve(n);
  for (std::uint16_t i = 0; i < n; ++i) names.push_back(r.read_string());
  return names;
}

// -- whole traces ----------------------------------------------------------

std::vector<std::uint8_t> encode_trace(const Trace& trace) {
  std::vector<std::uint8_t> out;
  out.reserve(32 + trace.total_event_pairs() * 2 * kEncodedEventSize);
  append_u32(out, kBinaryCodecMagic);
  append_u16(out, kBinaryCodecVersion);
  append_task_names(out, trace.task_names());
  BBMG_REQUIRE(trace.num_periods() <= kMaxPeriods, "too many periods");
  append_u32(out, static_cast<std::uint32_t>(trace.num_periods()));
  for (const Period& p : trace.periods()) {
    const std::vector<Event> events = p.to_events();
    append_u32(out, static_cast<std::uint32_t>(events.size()));
    for (const Event& e : events) append_event(out, e);
  }
  return out;
}

Trace decode_trace(const std::uint8_t* data, std::size_t size) {
  ByteReader r(data, size);
  if (r.read_u32() != kBinaryCodecMagic) {
    raise("binary codec: bad magic (not a BBTC trace)");
  }
  const std::uint16_t version = r.read_u16();
  if (version != kBinaryCodecVersion) {
    std::ostringstream os;
    os << "binary codec: unsupported version " << version << " (expected "
       << kBinaryCodecVersion << ")";
    raise(os.str());
  }
  std::vector<std::string> names = read_task_names(r);
  TraceBuilder builder(std::move(names));
  const std::uint32_t nperiods = r.read_u32();
  if (nperiods > kMaxPeriods) {
    raise("binary codec: period count exceeds sanity cap");
  }
  for (std::uint32_t p = 0; p < nperiods; ++p) {
    const std::uint32_t nevents = r.read_u32();
    if (nevents > kMaxEventsPerPeriod) {
      raise("binary codec: event count exceeds sanity cap");
    }
    builder.begin_period();
    for (std::uint32_t i = 0; i < nevents; ++i) {
      builder.add_event(r.read_event());
    }
    builder.end_period();
  }
  if (!r.done()) {
    raise("binary codec: trailing garbage after trace body");
  }
  return builder.take();
}

Trace decode_trace(const std::vector<std::uint8_t>& bytes) {
  return decode_trace(bytes.data(), bytes.size());
}

void save_trace_file_binary(const std::string& path, const Trace& trace) {
  std::ofstream os(path, std::ios::binary);
  BBMG_REQUIRE(os.good(), "cannot open file for writing: " + path);
  const std::vector<std::uint8_t> bytes = encode_trace(trace);
  os.write(reinterpret_cast<const char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
  BBMG_REQUIRE(os.good(), "write failed: " + path);
}

Trace load_trace_file_binary(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  BBMG_REQUIRE(is.good(), "cannot open file for reading: " + path);
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(is)),
                                  std::istreambuf_iterator<char>());
  return decode_trace(bytes);
}

}  // namespace bbmg
