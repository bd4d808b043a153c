// Append-only, CRC32-framed result journal — the durability primitive of
// the crash-recovery layer (DESIGN.md section 14). A journaled batch run
// appends one opaque record per completed unit of work; after a process
// death (segfault, OOM-kill, SIGKILL mid-write) recovery replays every
// intact record and truncates the torn tail, so an interrupted run
// resumes from exactly the work that finished.
//
// On-disk format (little-endian, the only byte order we target):
//
//   header:  8-byte magic "MBFJRNL\x01" | u32 version (1) | u32 metaLen
//            | metaLen bytes of caller meta (a run fingerprint; resume
//            refuses a journal whose meta differs from the current run)
//   record:  u32 payloadLen | u32 crc32(payload) | payload bytes
//
// Recovery walks records until EOF or the first bad frame (short header,
// short frame, CRC mismatch, absurd length) and reports `validBytes`;
// everything behind that point is intact by CRC, everything after is a
// torn tail. openForAppend() truncates the tail before appending so a
// resumed run never interleaves new records with garbage.
//
// Durability policy: kNone leaves records in the OS page cache — that
// already survives any process death (SIGKILL included), because write()
// completes into the kernel before returning. kEachRecord additionally
// fsyncs after every append, extending the guarantee to machine power
// loss at the cost of one fsync per record.
//
// Thread safety: append() serializes internally; one JournalWriter may
// be shared by all worker threads of a batch.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "support/status.h"

namespace mbf {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of `bytes`.
/// Exposed for tests; the journal uses it to frame every record.
std::uint32_t crc32(std::string_view bytes);

enum class JournalFsync : std::uint8_t {
  kNone,        ///< page-cache durability: survives process death
  kEachRecord,  ///< fsync per append: survives power loss
};

struct JournalRecoveryStats {
  std::int64_t fileBytes = 0;   ///< size of the journal file on disk
  std::int64_t validBytes = 0;  ///< header + all intact records
  int records = 0;              ///< intact records recovered
  bool tornTail = false;        ///< fileBytes > validBytes before truncation
};

/// Read-only recovery: replays every intact record of `path` into
/// `recordsOut` (appended in journal order) and reports the stored meta.
/// A torn tail is not an error — it is reported via `stats` and simply
/// not replayed. Errors: kIoError (unreadable), kParseError (bad magic
/// or unsupported version — not a journal we wrote).
Status recoverJournal(const std::string& path, std::string& metaOut,
                      std::vector<std::string>& recordsOut,
                      JournalRecoveryStats* stats = nullptr);

class JournalWriter {
 public:
  JournalWriter() = default;
  ~JournalWriter();
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Creates (or truncates) `path` and writes the header with `meta`.
  Status create(const std::string& path, std::string_view meta,
                JournalFsync fsync);

  /// Opens an existing journal for appending: recovers intact records
  /// into `outRecords`, verifies the stored meta equals `meta`
  /// (kInvalidArgument otherwise — the journal belongs to a different
  /// run), truncates any torn tail, and positions at the end. When
  /// `path` does not exist — or holds only a torn HEADER (a strict
  /// prefix of the header this run would write: the journaling process
  /// died inside create(), before any record could exist) — falls back
  /// to create() (a resume of a run that never started is a fresh run).
  Status openForAppend(const std::string& path, std::string_view meta,
                       JournalFsync fsync,
                       std::vector<std::string>& outRecords,
                       JournalRecoveryStats* statsOut = nullptr);

  /// Appends one framed record. Thread-safe; the frame is assembled
  /// into one buffer and issued as a single write(), so a record is
  /// either fully in the kernel or not written at all on process death.
  Status append(std::string_view payload);

  /// Forces everything appended so far to stable storage.
  Status sync();

  bool isOpen() const { return fd_ >= 0; }
  void close();

  /// close() that checks the ::close(2) return. Under kEachRecord a
  /// failed close can mean dirty metadata never reached disk, so it
  /// surfaces as kIoError (the seal path must not stamp a journal whose
  /// close reported EIO); under kNone we only ever promised page-cache
  /// durability, so the error is swallowed like close() always did.
  /// kOk on an already-closed writer.
  Status closeChecked();

 private:
  int fd_ = -1;
  JournalFsync fsync_ = JournalFsync::kNone;
  std::mutex mutex_;
};

}  // namespace mbf
