#include "support/journal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <limits>

#include "io/atomic_file.h"
#include "support/sysio.h"
#include "support/telemetry.h"

namespace mbf {
namespace {

constexpr char kMagic[8] = {'M', 'B', 'F', 'J', 'R', 'N', 'L', '\x01'};
constexpr std::uint32_t kVersion = 1;
/// Sanity cap on one record / the meta blob. A length field above this
/// is treated as frame corruption, not as a 4 GB allocation request.
constexpr std::uint32_t kMaxPayloadBytes = 256u << 20;

std::array<std::uint32_t, 256> makeCrcTable() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

void putU32(std::string& out, std::uint32_t v) {
  char b[4];
  std::memcpy(b, &v, 4);  // little-endian host, the only target
  out.append(b, 4);
}

bool getU32(std::string_view bytes, std::size_t at, std::uint32_t& out) {
  if (at + 4 > bytes.size()) return false;
  std::memcpy(&out, bytes.data() + at, 4);
  return true;
}

Status ioError(const std::string& what, const std::string& path) {
  return Status(StatusCode::kIoError,
                what + " '" + path + "': " + std::strerror(errno));
}

}  // namespace

std::uint32_t crc32(std::string_view bytes) {
  static const std::array<std::uint32_t, 256> kTable = makeCrcTable();
  std::uint32_t c = 0xFFFFFFFFu;
  for (const char ch : bytes) {
    c = kTable[(c ^ static_cast<unsigned char>(ch)) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void appendFrame(std::string& out, std::string_view payload) {
  out.reserve(out.size() + 8 + payload.size());
  putU32(out, static_cast<std::uint32_t>(payload.size()));
  putU32(out, crc32(payload));
  out.append(payload);
}

FrameRead readFrame(std::string_view bytes, std::size_t& at,
                    std::string_view& payload) {
  std::uint32_t len = 0;
  std::uint32_t crc = 0;
  if (!getU32(bytes, at, len) || !getU32(bytes, at + 4, crc)) {
    return FrameRead::kShort;
  }
  if (len > kMaxPayloadBytes) return FrameRead::kBad;
  if (at + 8 + len > bytes.size()) return FrameRead::kShort;
  const std::string_view body = bytes.substr(at + 8, len);
  if (crc32(body) != crc) return FrameRead::kBad;
  payload = body;
  at += 8 + static_cast<std::size_t>(len);
  return FrameRead::kFrame;
}

Status recoverJournal(const std::string& path, std::string& metaOut,
                      std::vector<std::string>& recordsOut,
                      JournalRecoveryStats* statsOut) {
  TraceScope traceReplay("journal-replay");
  JournalRecoveryStats stats;
  std::string bytes;
  {
    // Through the sysio-routed reader so recovery itself is drillable —
    // an EIO mid-replay must surface, not truncate silently. A missing
    // journal keeps the historical kIoError contract.
    Status rd = readFileToString(path, bytes);
    if (!rd.ok()) {
      if (rd.code() == StatusCode::kNotFound) {
        return Status(StatusCode::kIoError, rd.message());
      }
      return rd;
    }
  }
  stats.fileBytes = static_cast<std::int64_t>(bytes.size());

  // Header. A journal too short for the fixed header, or with the wrong
  // magic/version, was never a journal of ours — that is a hard error,
  // unlike a torn tail.
  if (bytes.size() < sizeof(kMagic) + 8 ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status(StatusCode::kParseError,
                  "'" + path + "' is not an mbf journal (bad magic)");
  }
  std::uint32_t version = 0;
  std::uint32_t metaLen = 0;
  getU32(bytes, sizeof(kMagic), version);
  getU32(bytes, sizeof(kMagic) + 4, metaLen);
  if (version != kVersion) {
    return Status(StatusCode::kParseError,
                  "unsupported journal version " + std::to_string(version) +
                      " in '" + path + "'");
  }
  std::size_t at = sizeof(kMagic) + 8;
  if (metaLen > kMaxPayloadBytes || at + metaLen > bytes.size()) {
    return Status(StatusCode::kTruncated,
                  "journal '" + path + "' ends inside its header meta");
  }
  metaOut.assign(bytes, at, metaLen);
  at += metaLen;

  // Records until EOF or the first bad frame. Everything recovered is
  // CRC-verified; everything after the first bad frame is a torn tail.
  std::string_view payload;
  while (readFrame(bytes, at, payload) == FrameRead::kFrame) {
    recordsOut.emplace_back(payload);
    ++stats.records;
  }
  stats.validBytes = static_cast<std::int64_t>(at);
  stats.tornTail = stats.validBytes < stats.fileBytes;
  if (statsOut != nullptr) *statsOut = stats;
  return {};
}

JournalWriter::~JournalWriter() { close(); }

void JournalWriter::close() {
  if (fd_ >= 0) {
    sysio::close(fd_);
    fd_ = -1;
  }
}

Status JournalWriter::closeChecked() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (fd_ < 0) return {};
  const int rc = sysio::close(fd_);
  const int err = errno;
  fd_ = -1;
  if (rc != 0 && fsync_ == JournalFsync::kEachRecord) {
    return Status(StatusCode::kIoError,
                  std::string("journal close failed: ") + std::strerror(err));
  }
  return {};
}

Status JournalWriter::create(const std::string& path, std::string_view meta,
                             JournalFsync fsync) {
  close();
  fsync_ = fsync;
  fd_ = sysio::open(path.c_str(),
                    O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd_ < 0) return ioError("cannot create journal", path);
  std::string header(kMagic, sizeof(kMagic));
  putU32(header, kVersion);
  putU32(header, static_cast<std::uint32_t>(meta.size()));
  header.append(meta);
  const Status written = writeAllBytes(fd_, header.data(), header.size());
  if (!written.ok()) {
    close();
    return Status(StatusCode::kIoError, "cannot write journal header to '" +
                                            path + "': " + written.message());
  }
  Status synced = sync();
  if (!synced.ok()) return synced;
  // The O_CREAT above added a directory entry; without flushing the
  // parent directory a crash can leave a synced file that is not
  // reachable by name, which the resume path would read as "never ran".
  if (fsync_ == JournalFsync::kEachRecord) {
    Status dir = fsyncParentDir(path);
    if (!dir.ok()) return dir;
  }
  return {};
}

Status JournalWriter::openForAppend(const std::string& path,
                                    std::string_view meta, JournalFsync fsync,
                                    std::vector<std::string>& outRecords,
                                    JournalRecoveryStats* statsOut) {
  close();
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) {
    // Resuming a run that never wrote a journal: start fresh.
    if (statsOut != nullptr) *statsOut = {};
    return create(path, meta, fsync);
  }
  std::string storedMeta;
  JournalRecoveryStats stats;
  Status rec = recoverJournal(path, storedMeta, outRecords, &stats);
  if (!rec.ok()) {
    // A death during create() leaves a torn HEADER (empty file, partial
    // magic or meta) — such a journal never framed a record, so resuming
    // it is just a fresh run. Only when the on-disk bytes are a strict
    // prefix of the header this run would write, though; anything else
    // is a foreign file and keeps the recovery error.
    std::string bytes;
    (void)readFileToString(path, bytes);  // unreadable reads as empty
    std::string header(kMagic, sizeof(kMagic));
    putU32(header, kVersion);
    putU32(header, static_cast<std::uint32_t>(meta.size()));
    header.append(meta);
    if (bytes.size() < header.size() &&
        header.compare(0, bytes.size(), bytes) == 0) {
      if (statsOut != nullptr) {
        *statsOut = {};
        statsOut->tornTail = !bytes.empty();
      }
      return create(path, meta, fsync);
    }
    return rec;
  }
  if (storedMeta != meta) {
    return Status(StatusCode::kInvalidArgument,
                  "journal '" + path +
                      "' belongs to a different run (meta mismatch: stored '" +
                      storedMeta + "', expected '" + std::string(meta) + "')");
  }
  fsync_ = fsync;
  fd_ = sysio::open(path.c_str(), O_WRONLY | O_CLOEXEC);
  if (fd_ < 0) return ioError("cannot reopen journal", path);
  // Drop the torn tail so new records never follow garbage.
  if (::ftruncate(fd_, static_cast<off_t>(stats.validBytes)) != 0) {
    const Status s = ioError("cannot truncate torn tail of", path);
    close();
    return s;
  }
  if (::lseek(fd_, 0, SEEK_END) < 0) {
    const Status s = ioError("cannot seek to end of", path);
    close();
    return s;
  }
  if (statsOut != nullptr) *statsOut = stats;
  return {};
}

Status JournalWriter::append(std::string_view payload) {
  TraceScope traceAppend("journal-append");
  if (payload.size() > kMaxPayloadBytes) {
    return Status(StatusCode::kInvalidArgument,
                  "journal record of " + std::to_string(payload.size()) +
                      " bytes exceeds the frame cap");
  }
  std::string frame;
  appendFrame(frame, payload);
  std::lock_guard<std::mutex> lock(mutex_);
  if (fd_ < 0) {
    return Status(StatusCode::kInternal, "append on a closed journal");
  }
  const Status written = writeAllBytes(fd_, frame.data(), frame.size());
  if (!written.ok()) {
    return Status(StatusCode::kIoError,
                  "journal append failed: " + written.message());
  }
  if (fsync_ == JournalFsync::kEachRecord && sysio::fsync(fd_) != 0) {
    return Status(StatusCode::kIoError,
                  std::string("journal fsync failed: ") +
                      std::strerror(errno));
  }
  return {};
}

Status JournalWriter::sync() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (fd_ < 0) return {};
  if (sysio::fsync(fd_) != 0) {
    return Status(StatusCode::kIoError,
                  std::string("journal fsync failed: ") +
                      std::strerror(errno));
  }
  return {};
}

}  // namespace mbf
