// Persistent, content-addressed cell-fracture cache (DESIGN.md section
// 17). A run fractures each UNIQUE cell once; this cache extends that
// leverage across runs: a cell's fracture result is stored on disk
// under a SHA-256 key over its anchored cell-local geometry plus the
// result-relevant fracture configuration, so a warm re-run (or
// a run on a revision touching a few cells) fractures only cache
// misses.
//
// Format: an entry is ONE self-verifying file, `<dir>/<key>.cell`,
// published by a single atomicWriteFile (io/atomic_file): the line
// `mbf-cell-cache v4 <SHA-256 of the payload>`, then the journal's
// encodeCellRecord frame (mdp/checkpoint) of the cell's CellRecord. A
// lookup reads the file once, checks the digest, decodes the frame and
// checks the embedded key; any mismatch — bit rot, a tampered byte, a
// truncation, an entry copied to another key's path — REJECTS the entry
// (counted separately from a plain miss) and the caller re-fractures
// and overwrites. A cached result is never trusted on file-name match
// alone. The tag is part of every key, so entries written under an
// older tag are never read.
//
// Determinism: solutions round trip bit-exactly (memcpy'd doubles, no
// text formatting), so a warm run's output is byte-identical to the
// cold run that populated the cache. The stored record is canonical:
// cellIndex -1 (a plan index is not a property of the content) and
// every Solution::runtimeSeconds — the only wall-clock field — 0.0, so
// an entry's bytes are a pure function of its key. A replayed runtime
// would be a lie anyway (no fracture happened this run). The key
// deliberately EXCLUDES the thread counts (results are byte-identical
// at any thread count, a tested contract) and INCLUDES every other
// FractureParams field plus method / strictness, so changing any
// result-relevant knob invalidates the entry. Cells whose fracture
// degraded, was interrupted, or carries a non-ok report are never
// stored — a time-budget degradation is wall-clock dependent and must
// not be replayed as if it were the shape's true result.
//
// Concurrency (DESIGN.md section 19): the cache directory is safe to
// SHARE between simultaneously running processes. A rename publishes a
// whole entry or nothing, and every writer of `<key>.cell` produces
// bit-identical bytes (canonical record, see above), so concurrent
// stores of one key are benign last-writer-wins. Each process holds an
// advisory flock-based liveness lock (`.mbf-live.<pid>.lck`,
// io/atomic_file) in the cache directory and notes every key it loads
// or stores there; quota eviction skips keys noted by any LIVE process
// (counted in `evictionsSkippedLive`), and the stale-temp sweep never
// removes a live writer's temp files. Within one process the class is
// still single-threaded: the hierarchy driver does all cache I/O from
// the coordinating thread (fracturing, not cache I/O, is the parallel
// part).
#pragma once

#include <string>
#include <vector>

#include "io/atomic_file.h"
#include "mdp/checkpoint.h"
#include "mdp/layout.h"
#include "support/status.h"

namespace mbf {

/// The one geometry encoding, hashed by cell keys and the plan
/// fingerprint: counts delimit, raw int32 vertex coordinates carry the
/// content.
void hashShapes(Sha256& h, const std::vector<LayoutShape>& shapes);

/// Content address of a cell fracture: SHA-256 over the version tag,
/// resultConfigBytes(config) (mdp/layout), the limits
/// FractureParams::withoutLimits() clears (an armed injector as a flag)
/// and hashShapes(shapes). 64-char lowercase hex.
std::string cellFractureKey(const std::vector<LayoutShape>& shapes,
                            const BatchConfig& config);

/// On-disk cache: one self-verifying `<dir>/<key>.cell` file per cell.
/// Safe to share between processes (see the header comment); not
/// thread-safe within one — the hierarchy driver does all cache I/O from
/// the coordinating thread (fracturing, not cache I/O, is the parallel
/// part).
class CellFractureCache {
 public:
  enum class Lookup {
    kHit,       ///< verified entry decoded into the record
    kMiss,      ///< no entry on disk
    kRejected,  ///< entry failed digest/decode/key checks; re-fracture
  };

  struct Stats {
    int hits = 0;
    int misses = 0;
    int rejected = 0;  ///< integrity failures, never silently reused
    int stored = 0;
    int ioErrors = 0;  ///< store/load I/O failures (each one warns once)
    int evicted = 0;   ///< entries removed by the quota sweep
    /// Quota-sweep candidates spared because a concurrently LIVE
    /// process noted the key in its liveness lock.
    int evictionsSkippedLive = 0;
  };

  explicit CellFractureCache(std::string dir) : dir_(std::move(dir)) {}

  /// Creates the cache directory (and parents) if absent, acquires this
  /// process's liveness lock in it, and sweeps temp debris of provably
  /// dead writers.
  Status prepare();

  /// Looks up `record.key`; on kHit replaces the record's solutions and
  /// reports with the cached ones (its index and key are the caller's
  /// and stay). A rejected entry stays on disk until the caller store()s
  /// a fresh result over it. When the cache is disabled every lookup is
  /// a kMiss.
  Lookup load(CellRecord& record);

  /// Atomically writes the canonical form of `record` (cellIndex -1,
  /// every runtimeSeconds 0) under `record.key`. The cache is an
  /// optimization, never a correctness dependency: a write failure
  /// disables the cache for the rest of the run (degrade, don't die)
  /// and is returned once so the caller can log a counted warning; all
  /// later store()s are silent no-ops. After a successful store the
  /// quota sweep runs if a quota is set.
  Status store(const CellRecord& record);

  /// Best-effort size cap on the cache directory (0 = unlimited).
  /// After each store, if the `.cell` bytes exceed the quota, entries
  /// are evicted oldest-mtime-first — skipping every key this run
  /// touched (hit or stored), which must stay warm for a --verify or an
  /// immediate re-run.
  void setQuotaBytes(std::int64_t bytes) { quotaBytes_ = bytes; }

  /// Stops all cache I/O for the rest of the run, remembering the first
  /// cause. load() degrades to kMiss, store() to a no-op.
  void disable(Status cause);
  bool disabled() const { return disabled_; }
  const Status& disableCause() const { return disableCause_; }

  std::string pathFor(const std::string& key) const;
  const std::string& dir() const { return dir_; }
  const Stats& stats() const { return stats_; }

 private:
  void enforceQuota();

  std::string dir_;
  Stats stats_;
  std::int64_t quotaBytes_ = 0;
  bool disabled_ = false;
  Status disableCause_;
  std::vector<std::string> touchedKeys_;
  DirLivenessLock liveLock_;
};

}  // namespace mbf
