// Durable, checksummed artifact writes (DESIGN.md section 16).
//
// Every artifact the pipeline ships (.shots, GDS, SVG, metrics/trace
// JSON, journal segments, the run manifest itself) goes through one
// protocol: write the full payload to a temp file in the destination
// directory, fsync the file, rename() it over the destination, then
// fsync the parent directory so the rename itself survives a crash.
// Short writes (ENOSPC, quota) and EINTR are handled at the write(2)
// layer — a short write is retried from the unwritten tail and EINTR
// retries back off with a capped sleep — and every failure surfaces as
// a Status carrying the errno text, never as a silently truncated file.
//
// The same header hosts the artifact-hashing primitives the integrity
// layer is built on: a dependency-free SHA-256 (the x86 SHA extensions
// when CPUID reports them, else a portable loop; the digests are the
// same) and the `<path>.sha256` sidecar convention used for the run
// manifest (which cannot embed its own digest) and for the sealed run
// journal.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "support/status.h"

namespace mbf {

/// Incremental SHA-256 (FIPS 180-4). Dependency-free so the audit layer
/// needs nothing the container doesn't already have.
class Sha256 {
 public:
  /// The block function. kBest is chosen once per process from CPUID:
  /// the x86 SHA-extensions kernel when the CPU has it, else the
  /// portable loop. kPortable forces the portable loop, which stays the
  /// fallback and the oracle the hardware kernel is tested against.
  /// Every kernel yields the same digest.
  enum class Kernel { kBest, kPortable };

  explicit Sha256(Kernel kernel = Kernel::kBest);

  /// True when kBest is the SHA-extensions kernel on this CPU.
  static bool hardwareKernel();

  void reset();
  void update(const void* data, std::size_t size);

  /// Finalizes and returns the 64-char lowercase hex digest. The object
  /// must be reset() before reuse.
  std::string hexDigest();

  /// Compresses `blocks` consecutive 64-byte blocks into `state`.
  using BlockFn = void (*)(std::uint32_t* state, const std::uint8_t* data,
                           std::size_t blocks);

 private:
  BlockFn compress_;
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::uint64_t totalBytes_ = 0;
  std::size_t bufferUsed_ = 0;
};

/// One-shot convenience over Sha256.
std::string sha256Hex(std::string_view data);

/// Streams `path` through Sha256 and writes the 64-char hex digest to
/// `hexOut`. kIoError (with errno context) when the file can't be read.
Status sha256File(const std::string& path, std::string& hexOut);

/// write(2) the whole buffer to `fd`: retries EINTR with a capped
/// backoff, resumes short writes from the unwritten tail, and maps a
/// zero-progress write or hard error to kIoError with errno context.
Status writeAllBytes(int fd, const void* data, std::size_t size);

/// fsync the directory containing `path` so a just-created or
/// just-renamed entry survives a crash. kIoError on open/fsync failure.
Status fsyncParentDir(const std::string& path);

/// The full durability protocol: temp file next to `path` → writeAllBytes
/// → fsync(file) → rename over `path` → fsyncParentDir. On any failure
/// the temp file is unlinked and `path` is left untouched (old content,
/// if any, stays intact). When `hexOut` is non-null it receives the
/// SHA-256 of `data` (computed from the bytes actually written).
Status atomicWriteFile(const std::string& path, std::string_view data,
                       std::string* hexOut = nullptr);

/// Reads the whole file into `out`. kNotFound when the file does not
/// exist; kIoError with errno context on any other open/read failure
/// (out is left empty either way). Callers that treat "absent" as an
/// expected state (cache misses, optional sidecars) branch on the code;
/// a genuine EIO or short read never masquerades as a missing file.
Status readFileToString(const std::string& path, std::string& out);

/// Advisory per-process liveness lock (DESIGN.md section 19). A process
/// that writes into a shared directory acquires one of these: it creates
/// `<dir>/.mbf-live.<pid>.lck` and holds an exclusive flock(2) on it for
/// the object's lifetime. Sweepers and evictors probe the lock instead
/// of guessing from the pid: a held flock proves the writer is alive
/// even if its pid was recycled, and an unheld lock file proves it dead
/// even if kill(pid, 0) says some (recycled) pid exists. The lock file
/// doubles as a protection manifest: note() appends one token (a cache
/// key, for the cell cache) per line, and liveNotedTokens() returns the
/// union of tokens noted by every LIVE lock in the directory — the set
/// a quota eviction must not touch. Lock acquisition is best-effort: on
/// a filesystem without flock the object reports !held() and callers
/// fall back to the conservative pre-lock behavior.
class DirLivenessLock {
 public:
  DirLivenessLock() = default;
  ~DirLivenessLock();
  DirLivenessLock(const DirLivenessLock&) = delete;
  DirLivenessLock& operator=(const DirLivenessLock&) = delete;

  /// Creates and flocks `<dir>/.mbf-live.<pid>.lck`. Failure is not an
  /// error Status — liveness protection simply degrades — but held()
  /// reports it. Re-acquiring an already-held lock is a no-op.
  void acquire(const std::string& dir);

  /// Appends `token` + '\n' to the lock file (O_APPEND: atomic for
  /// tokens far under PIPE_BUF). No-op when the lock is not held.
  void note(const std::string& token);

  /// Drops the flock and unlinks the lock file (clean shutdown leaves
  /// no debris; a crashed process leaves an unheld file for sweepers).
  void release();

  bool held() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }

 private:
  int fd_ = -1;
  std::string path_;
};

/// What the liveness protocol can prove about the process that created
/// `pid`-tagged files in `dir`.
enum class WriterLiveness {
  kLive,     ///< lock file exists and is flocked: the writer is alive
  kDead,     ///< lock file exists but is NOT flocked: provably dead
  kUnknown,  ///< no lock file: a pre-protocol or foreign writer
};
WriterLiveness probeWriterLiveness(const std::string& dir, long pid);

/// Union of tokens noted by every LIVE liveness lock in `dir` (see
/// DirLivenessLock::note). Unheld lock files contribute nothing and are
/// unlinked in passing; enumeration errors return an empty set.
std::vector<std::string> liveNotedTokens(const std::string& dir);

/// Unlinks every `.mbf-live.<pid>.lck` in `dir` whose lock is no longer
/// held. Hygiene only; returns the number removed.
int sweepStaleLivenessLocks(const std::string& dir);

/// Removes orphaned `<artifact>.tmp.<pid>` files in `dir` — debris from
/// writers that died between open and rename. Liveness comes from the
/// advisory-lock protocol first (a held lock spares the temp, an unheld
/// lock file condemns it even when the pid was recycled by another
/// process); only writers that never acquired a lock fall back to the
/// conservative kill(pid, 0) probe, which can spare recycled-pid debris
/// but never deletes a live writer's temp. Stale liveness locks are
/// swept in the same pass. Returns the number of temp files removed;
/// enumeration or unlink errors are best-effort-skipped (the sweep is
/// hygiene, not correctness: an unremoved temp is invisible to readers).
int sweepStaleTempFiles(const std::string& dir);

/// The directory part of `path` ("." when it has none) and its last
/// component.
std::string dirnameOf(const std::string& path);
std::string basenameOf(const std::string& path);

/// Sidecar convention: `<artifact>.sha256` holds "<hex>  <basename>\n"
/// (the sha256sum(1) format). Written atomically.
std::string sidecarPathFor(const std::string& artifactPath);
Status writeHashSidecar(const std::string& artifactPath,
                        const std::string& hexDigest);

/// Parses a sidecar written by writeHashSidecar (tolerates a missing
/// basename field). kIoError when unreadable, kParseError when the
/// leading token is not a 64-char hex digest.
Status readHashSidecar(const std::string& artifactPath, std::string& hexOut);

/// Re-hashes `artifactPath` and compares against its sidecar.
/// kOk on match; kInfeasible with a pointed message on digest mismatch;
/// the read/parse Status otherwise.
Status verifyHashSidecar(const std::string& artifactPath);

/// The same check on `bytes`, the artifact's content as the caller
/// already read it, so what is checked is what the caller goes on to
/// use.
Status verifyHashSidecar(const std::string& artifactPath,
                         std::string_view bytes);

}  // namespace mbf
