// Compact binary codec for traces, the wire-facing sibling of the text
// format in serialize.hpp.  The text format is for inspection and diffing;
// live streams (src/serve) pay its tokenizer on every event, which is the
// dominant ingest cost once the learner is sharded.  This codec is a
// fixed-width little-endian encoding that round-trips a trace exactly
// (same periods, same event order, same task-name table) at roughly 13
// bytes per event and no parsing beyond bounds-checked loads.
//
// Layout (all integers little-endian):
//
//   header:  magic u32 'BBTC' | version u16 | ntasks u16
//            ntasks x { len u16 | name bytes }
//   body:    nperiods u32
//            nperiods x { nevents u32 | nevents x event }
//   event:   kind u8 | id u32 (task index or CAN id) | time u64
//
// Decoding is strict: a wrong magic, an unsupported version, a truncated
// buffer, an out-of-range kind, or a size field beyond the sanity caps
// throws bbmg::Error — corrupt frames are rejected, never guessed at.
// Period payloads are rebuilt through TraceBuilder, so a decoded trace
// satisfies the same invariants as one loaded from text.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "trace/event.hpp"
#include "trace/trace.hpp"

namespace bbmg {

inline constexpr std::uint32_t kBinaryCodecMagic = 0x43544242u;  // "BBTC"
inline constexpr std::uint16_t kBinaryCodecVersion = 1;
inline constexpr std::size_t kEncodedEventSize = 1 + 4 + 8;

/// Sanity caps applied while decoding, so garbage length fields cannot
/// drive allocations: a frame claiming more than this is rejected.
inline constexpr std::size_t kMaxTasks = 4096;
inline constexpr std::size_t kMaxNameLength = 4096;
inline constexpr std::size_t kMaxEventsPerPeriod = 1u << 24;
inline constexpr std::size_t kMaxPeriods = 1u << 24;

// -- primitive writers (append to a byte buffer) ---------------------------

void append_u8(std::vector<std::uint8_t>& out, std::uint8_t v);
void append_u16(std::vector<std::uint8_t>& out, std::uint16_t v);
void append_u32(std::vector<std::uint8_t>& out, std::uint32_t v);
void append_u64(std::vector<std::uint8_t>& out, std::uint64_t v);
void append_string(std::vector<std::uint8_t>& out, const std::string& s);
void append_event(std::vector<std::uint8_t>& out, const Event& e);

// -- bounds-checked reader -------------------------------------------------

/// Cursor over a byte buffer; every read checks the remaining length and
/// throws bbmg::Error("binary codec: truncated input ...") on overrun.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  [[nodiscard]] std::uint8_t read_u8();
  [[nodiscard]] std::uint16_t read_u16();
  [[nodiscard]] std::uint32_t read_u32();
  [[nodiscard]] std::uint64_t read_u64();
  /// Reads u16 length + bytes; length capped at kMaxNameLength.
  [[nodiscard]] std::string read_string();
  [[nodiscard]] Event read_event();
  /// Reads the u32 count of a count-prefixed list before anything is
  /// reserved for it.  Raises `cap_error` when the count is above `cap`,
  /// and a truncated-input error when fewer than count x
  /// `min_item_bytes` (>= 1) bytes remain, so a hostile count cannot drive
  /// an allocation larger than the input that claims it.
  [[nodiscard]] std::uint32_t read_count(std::size_t cap,
                                         std::size_t min_item_bytes,
                                         std::string_view cap_error);

  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }
  [[nodiscard]] bool done() const { return pos_ == size_; }
  [[nodiscard]] std::size_t position() const { return pos_; }

 private:
  void need(std::size_t n) const;
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_{0};
};

// -- task-name table (shared with the serve wire protocol) -----------------

void append_task_names(std::vector<std::uint8_t>& out,
                       const std::vector<std::string>& names);
[[nodiscard]] std::vector<std::string> read_task_names(ByteReader& r);

// -- whole traces ----------------------------------------------------------

[[nodiscard]] std::vector<std::uint8_t> encode_trace(const Trace& trace);
[[nodiscard]] Trace decode_trace(const std::uint8_t* data, std::size_t size);
[[nodiscard]] Trace decode_trace(const std::vector<std::uint8_t>& bytes);

void save_trace_file_binary(const std::string& path, const Trace& trace);
[[nodiscard]] Trace load_trace_file_binary(const std::string& path);

}  // namespace bbmg
