#include "durable/wal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/error.hpp"
#include "durable/checksum.hpp"
#include "durable/durable_metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace_context.hpp"
#include "trace/binary_codec.hpp"

namespace bbmg::durable {

namespace {

void write_fd_all(int fd, const std::uint8_t* data, std::size_t size,
                  const std::string& path) {
  std::size_t off = 0;
  while (off < size) {
    const ssize_t n = ::write(fd, data + off, size - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      raise("durable: WAL write failed for " + path + ": " +
            std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
}

/// Read up to `size` bytes; short only at EOF.  Throws on I/O errors.
std::size_t read_fd_upto(int fd, std::uint8_t* data, std::size_t size,
                         const std::string& path) {
  std::size_t off = 0;
  while (off < size) {
    const ssize_t n = ::read(fd, data + off, size - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      raise("durable: WAL read failed for " + path + ": " +
            std::strerror(errno));
    }
    if (n == 0) break;
    off += static_cast<std::size_t>(n);
  }
  return off;
}

struct FdCloser {
  int fd{-1};
  ~FdCloser() {
    if (fd >= 0) ::close(fd);
  }
};

int open_wal_readonly(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    raise("durable: cannot open WAL " + path + ": " + std::strerror(errno));
  }
  return fd;
}

WalHeader parse_wal_header(const std::uint8_t* data, std::size_t size,
                           const std::string& path) {
  BBMG_REQUIRE(size >= kWalHeaderSize,
               "durable: WAL " + path + " shorter than its header");
  ByteReader header(data, size);
  BBMG_REQUIRE(header.read_u32() == kWalMagic,
               "durable: not a WAL file (bad magic)");
  const std::uint16_t version = header.read_u16();
  BBMG_REQUIRE(version == kWalVersion,
               "durable: unsupported WAL version " + std::to_string(version));
  WalHeader h;
  h.session = header.read_u32();
  h.base_seq = header.read_u64();
  return h;
}

/// Decode one record payload (nevents + events).  Returns false on any
/// malformation — the caller treats it as a torn tail.
bool decode_wal_payload(const std::uint8_t* payload, std::size_t len,
                        WalRecord& record) {
  try {
    ByteReader pr(payload, len);
    const std::uint32_t nevents = pr.read_count(
        kMaxEventsPerPeriod, kEncodedEventSize,
        "WAL: event count exceeds sanity cap");
    record.events.reserve(nevents);
    for (std::uint32_t i = 0; i < nevents; ++i) {
      record.events.push_back(pr.read_event());
    }
    return pr.done();
  } catch (const Error&) {
    return false;  // undecodable payload despite a good CRC: treat as torn
  }
}

}  // namespace

// -- WalWriter -------------------------------------------------------------

WalWriter::~WalWriter() { close(); }

WalWriter::WalWriter(WalWriter&& other) noexcept { *this = std::move(other); }

WalWriter& WalWriter::operator=(WalWriter&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    path_ = std::move(other.path_);
    session_ = other.session_;
    base_seq_ = other.base_seq_;
    last_seq_ = other.last_seq_;
    fsync_every_ = other.fsync_every_;
    unsynced_ = std::exchange(other.unsynced_, 0);
  }
  return *this;
}

void WalWriter::close() {
  if (fd_ >= 0) {
    if (unsynced_ > 0) ::fsync(fd_);
    ::close(fd_);
    fd_ = -1;
    unsynced_ = 0;
  }
}

void WalWriter::write_header() {
  std::vector<std::uint8_t> header;
  header.reserve(kWalHeaderSize);
  append_u32(header, kWalMagic);
  append_u16(header, kWalVersion);
  append_u32(header, session_);
  append_u64(header, base_seq_);
  write_fd_all(fd_, header.data(), header.size(), path_);
  if (::fsync(fd_) != 0) {
    raise("durable: fsync failed for " + path_ + ": " + std::strerror(errno));
  }
  DurableMetrics::get().wal_fsyncs.inc(1);
}

void WalWriter::create(const std::string& path, std::uint32_t session,
                       std::uint64_t base_seq, std::size_t fsync_every) {
  close();
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0) {
    raise("durable: cannot create WAL " + path + ": " + std::strerror(errno));
  }
  path_ = path;
  session_ = session;
  base_seq_ = base_seq;
  last_seq_ = base_seq;
  fsync_every_ = fsync_every == 0 ? 1 : fsync_every;
  unsynced_ = 0;
  write_header();
}

void WalWriter::open(const std::string& path, std::uint32_t session,
                     std::uint64_t base_seq, std::uint64_t last_seq,
                     std::size_t fsync_every) {
  close();
  fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND);
  if (fd_ < 0) {
    raise("durable: cannot reopen WAL " + path + ": " + std::strerror(errno));
  }
  path_ = path;
  session_ = session;
  base_seq_ = base_seq;
  last_seq_ = last_seq;
  fsync_every_ = fsync_every == 0 ? 1 : fsync_every;
  unsynced_ = 0;
}

void WalWriter::append(std::uint64_t seq, const std::vector<Event>& events) {
  BBMG_ASSERT(is_open(), "durable: append on a closed WAL");
  BBMG_REQUIRE(seq == last_seq_ + 1,
               "durable: WAL append out of sequence (got " +
                   std::to_string(seq) + ", expected " +
                   std::to_string(last_seq_ + 1) + ")");
  const std::uint64_t t0 = obs::now_ns();

  std::vector<std::uint8_t> payload;
  payload.reserve(4 + events.size() * kEncodedEventSize);
  append_u32(payload, static_cast<std::uint32_t>(events.size()));
  for (const Event& e : events) append_event(payload, e);
  BBMG_REQUIRE(payload.size() <= kMaxWalRecordPayload,
               "durable: WAL record exceeds the payload cap");

  std::vector<std::uint8_t> record;
  record.reserve(16 + payload.size());
  append_u64(record, seq);
  append_u32(record, static_cast<std::uint32_t>(payload.size()));
  append_u32(record, crc32(payload));
  record.insert(record.end(), payload.begin(), payload.end());

  // One write(2) per record: a process kill can only tear the final
  // record, which scan_wal detects and truncates.
  write_fd_all(fd_, record.data(), record.size(), path_);
  last_seq_ = seq;

  auto& m = DurableMetrics::get();
  m.wal_appends.inc(1);
  m.wal_bytes.inc(record.size());
  // Stage spans attach to whatever trace the calling worker scoped; the
  // fsync span only exists on the periods that pay the group commit.
  obs::record_current_stage("server.wal_append", t0, obs::now_ns());
  if (++unsynced_ >= fsync_every_) {
    const std::uint64_t fsync_start = obs::now_ns();
    if (::fsync(fd_) != 0) {
      raise("durable: fsync failed for " + path_ + ": " +
            std::strerror(errno));
    }
    obs::record_current_stage("server.fsync", fsync_start, obs::now_ns());
    m.wal_fsyncs.inc(1);
    unsynced_ = 0;
  }
  m.wal_append_us.observe((obs::now_ns() - t0) / 1000);
}

std::uint64_t WalWriter::flush() {
  BBMG_ASSERT(is_open(), "durable: flush on a closed WAL");
  if (unsynced_ > 0) {
    if (::fsync(fd_) != 0) {
      raise("durable: fsync failed for " + path_ + ": " +
            std::strerror(errno));
    }
    DurableMetrics::get().wal_fsyncs.inc(1);
    unsynced_ = 0;
  }
  return last_seq_;
}

void WalWriter::rotate(std::uint64_t base_seq) {
  BBMG_ASSERT(is_open(), "durable: rotate on a closed WAL");
  BBMG_REQUIRE(base_seq >= base_seq_,
               "durable: WAL rotation must not move the base backwards");
  if (::ftruncate(fd_, 0) != 0) {
    raise("durable: ftruncate failed for " + path_ + ": " +
          std::strerror(errno));
  }
  if (::lseek(fd_, 0, SEEK_SET) < 0) {
    raise("durable: lseek failed for " + path_ + ": " + std::strerror(errno));
  }
  base_seq_ = base_seq;
  last_seq_ = base_seq;
  unsynced_ = 0;
  write_header();
}

// -- scanning --------------------------------------------------------------

WalScan scan_wal(const std::uint8_t* data, std::size_t size) {
  // Header corruption condemns the whole file (throws -> quarantine).
  const WalHeader header = parse_wal_header(data, size, "<memory>");
  WalScan scan;
  scan.session = header.session;
  scan.base_seq = header.base_seq;
  scan.valid_bytes = kWalHeaderSize;

  std::uint64_t expect_seq = scan.base_seq + 1;
  std::size_t pos = kWalHeaderSize;
  while (pos < size) {
    // Record framing checks; any failure here is a torn/corrupt tail,
    // not a fatal file error — everything before `pos` stays good.
    if (size - pos < 16) break;
    ByteReader r(data + pos, size - pos);
    const std::uint64_t seq = r.read_u64();
    const std::uint32_t len = r.read_u32();
    const std::uint32_t stored_crc = r.read_u32();
    if (seq != expect_seq) break;
    if (len > kMaxWalRecordPayload) break;
    if (size - pos - 16 < len) break;
    const std::uint8_t* payload = data + pos + 16;
    if (crc32(payload, len) != stored_crc) break;

    WalRecord record;
    record.seq = seq;
    if (!decode_wal_payload(payload, len, record)) break;
    scan.records.push_back(std::move(record));
    pos += 16 + len;
    scan.valid_bytes = pos;
    ++expect_seq;
  }
  scan.torn_tail = scan.valid_bytes < size;
  return scan;
}

WalScan scan_wal(const std::vector<std::uint8_t>& bytes) {
  return scan_wal(bytes.data(), bytes.size());
}

WalHeader read_wal_header(const std::string& path) {
  FdCloser fd{open_wal_readonly(path)};
  std::uint8_t buf[kWalHeaderSize];
  const std::size_t got = read_fd_upto(fd.fd, buf, kWalHeaderSize, path);
  return parse_wal_header(buf, got, path);
}

WalFileScan scan_wal_file(
    const std::string& path,
    const std::function<void(WalRecord&&)>& on_record) {
  FdCloser fd{open_wal_readonly(path)};

  std::uint8_t header_buf[kWalHeaderSize];
  const std::size_t header_got =
      read_fd_upto(fd.fd, header_buf, kWalHeaderSize, path);
  const WalHeader header = parse_wal_header(header_buf, header_got, path);

  WalFileScan scan;
  scan.session = header.session;
  scan.base_seq = header.base_seq;
  scan.last_seq = header.base_seq;
  scan.valid_bytes = kWalHeaderSize;

  std::uint64_t expect_seq = scan.base_seq + 1;
  std::vector<std::uint8_t> payload;
  for (;;) {
    std::uint8_t rec_header[16];
    const std::size_t got = read_fd_upto(fd.fd, rec_header, 16, path);
    if (got == 0) break;  // clean end of log
    if (got < 16) {
      scan.torn_tail = true;
      break;
    }
    ByteReader r(rec_header, 16);
    const std::uint64_t seq = r.read_u64();
    const std::uint32_t len = r.read_u32();
    const std::uint32_t stored_crc = r.read_u32();
    if (seq != expect_seq || len > kMaxWalRecordPayload) {
      scan.torn_tail = true;
      break;
    }
    payload.resize(len);
    if (read_fd_upto(fd.fd, payload.data(), len, path) < len) {
      scan.torn_tail = true;
      break;
    }
    if (crc32(payload.data(), len) != stored_crc) {
      scan.torn_tail = true;
      break;
    }
    WalRecord record;
    record.seq = seq;
    if (!decode_wal_payload(payload.data(), len, record)) {
      scan.torn_tail = true;
      break;
    }
    on_record(std::move(record));
    scan.valid_bytes += 16 + len;
    scan.last_seq = seq;
    ++scan.records;
    ++expect_seq;
  }
  return scan;
}

void truncate_file(const std::string& path, std::uint64_t size) {
  if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
    raise("durable: truncate failed for " + path + ": " +
          std::strerror(errno));
  }
}

}  // namespace bbmg::durable
