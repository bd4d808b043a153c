#include "mdp/cell_cache.h"

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <unordered_set>

#include "io/atomic_file.h"
#include "mdp/checkpoint.h"
#include "support/sysio.h"

namespace mbf {
namespace {

// Key tag and entry header tag: bumping it re-addresses every entry, so
// entries of an older format are never read. v4: the key hashes
// resultConfigBytes, so v3 keys of the same content differ.
constexpr char kMagic[] = "mbf-cell-cache v4";

/// The entry's first line: the tag and the payload digest.
std::string entryHeader(std::string_view payload) {
  return std::string(kMagic) + " " + sha256Hex(payload) + "\n";
}
constexpr std::size_t kHeaderBytes = sizeof kMagic + 65;  // ' ', hex, '\n'

/// mkdir -p: creates every missing component of `dir`.
Status makeDirs(const std::string& dir) {
  if (dir.empty()) return {};
  std::string prefix;
  std::size_t at = 0;
  while (at <= dir.size()) {
    const std::size_t slash = dir.find('/', at);
    prefix = slash == std::string::npos ? dir : dir.substr(0, slash);
    at = slash == std::string::npos ? dir.size() + 1 : slash + 1;
    if (prefix.empty()) continue;  // leading '/'
    if (sysio::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      return Status(StatusCode::kIoError,
                    "cannot create cache directory '" + prefix +
                        "': " + std::strerror(errno));
    }
  }
  return {};
}

}  // namespace

void hashShapes(Sha256& h, const std::vector<LayoutShape>& shapes) {
  static_assert(sizeof(Point) == 2 * sizeof(std::int32_t));
  auto putCount = [&](std::size_t n) {
    const auto v = static_cast<std::int64_t>(n);
    h.update(&v, sizeof v);
  };
  putCount(shapes.size());
  for (const LayoutShape& shape : shapes) {
    putCount(shape.rings.size());
    for (const Polygon& ring : shape.rings) {
      putCount(ring.size());
      h.update(ring.vertices().data(), ring.size() * sizeof(Point));
    }
  }
}

std::string cellFractureKey(const std::vector<LayoutShape>& shapes,
                            const BatchConfig& config) {
  Sha256 h;
  h.update(kMagic, sizeof kMagic - 1);
  const std::string bytes = resultConfigBytes(config);
  h.update(bytes.data(), bytes.size());
  // The limits, and a flag for an armed injector; never the thread
  // counts, so a cache filled at --threads=8 serves a --threads=1 run.
  const FractureParams& p = config.params;
  h.update(&p.shapeTimeBudgetMs, sizeof p.shapeTimeBudgetMs);
  h.update(&p.maxGridBytes, sizeof p.maxGridBytes);
  const std::uint8_t injected = p.faultInjector != nullptr ? 1 : 0;
  h.update(&injected, 1);
  hashShapes(h, shapes);
  return h.hexDigest();
}

Status CellFractureCache::prepare() {
  Status st = makeDirs(dir_);
  if (!st.ok()) return st;
  // Advisory liveness lock: announces this process to concurrent
  // sharers of the directory so their quota sweeps spare our keys.
  // Acquisition failure (no flock support) degrades protection, not
  // correctness.
  liveLock_.acquire(dir_);
  // Debris of provably dead writers (crashed mid-store) is hygiene this
  // run can do for free; live writers' temps are spared by their locks.
  sweepStaleTempFiles(dir_);
  return {};
}

std::string CellFractureCache::pathFor(const std::string& key) const {
  return dir_ + "/" + key + ".cell";
}

void CellFractureCache::disable(Status cause) {
  if (disabled_) return;
  disabled_ = true;
  disableCause_ = std::move(cause);
}

CellFractureCache::Lookup CellFractureCache::load(CellRecord& record) {
  if (disabled_) {
    ++stats_.misses;
    return Lookup::kMiss;
  }
  std::string bytes;
  const Status rd = readFileToString(pathFor(record.key), bytes);
  if (rd.code() == StatusCode::kNotFound) {
    ++stats_.misses;
    return Lookup::kMiss;
  }
  if (!rd.ok()) {
    // A real read fault (EIO, not tamper): the filesystem under the
    // cache is sick. Stop talking to it — every cell still fractures
    // from scratch.
    ++stats_.ioErrors;
    disable(rd);
    ++stats_.rejected;
    return Lookup::kRejected;
  }

  // Never trust a cache entry on file-name match alone: the payload
  // digest must verify and the embedded key must equal the requested
  // one before a single solution is used.
  const std::string_view payload =
      std::string_view(bytes).substr(std::min(kHeaderBytes, bytes.size()));
  CellRecord cached;
  if (bytes.compare(0, kHeaderBytes, entryHeader(payload)) != 0 ||
      !decodeCellRecord(payload, cached).ok() || cached.key != record.key) {
    ++stats_.rejected;
    return Lookup::kRejected;
  }
  record.solutions = std::move(cached.solutions);
  record.reports = std::move(cached.reports);
  ++stats_.hits;
  touchedKeys_.push_back(record.key);  // a hit must survive the quota sweep
  liveLock_.note(record.key);  // ...including sweeps run by OTHER processes
  return Lookup::kHit;
}

Status CellFractureCache::store(const CellRecord& record) {
  if (disabled_) return {};  // degraded: results still ship, just uncached
  // Canonical bytes: the plan index and runtimeSeconds (the one
  // wall-clock field in a Solution) are not properties of the content,
  // so with them fixed an entry's bytes are a pure function of its key
  // and concurrent writers of one key publish bit-identical files.
  CellRecord canonical{-1, record.key, record.solutions, record.reports};
  for (Solution& sol : canonical.solutions) sol.runtimeSeconds = 0.0;
  const std::string payload = encodeCellRecord(canonical);
  const Status status =
      atomicWriteFile(pathFor(record.key), entryHeader(payload) + payload);
  if (!status.ok()) {
    // Degrade, don't die: one failed store (full filer, dead disk)
    // disables the cache for the rest of the run. The fracture result
    // being stored is already in memory and ships with the batch; only
    // the cross-run reuse is lost. One rename publishes the entry, so
    // whatever the failed write left on disk is a whole entry or none.
    ++stats_.ioErrors;
    disable(status);
    return status;
  }
  ++stats_.stored;
  touchedKeys_.push_back(record.key);  // this run's entries are never evicted
  liveLock_.note(record.key);          // ...nor evicted by a concurrent run
  if (quotaBytes_ > 0) enforceQuota();
  return {};
}

void CellFractureCache::enforceQuota() {
  struct Entry {
    std::string key;
    std::int64_t bytes = 0;
    std::int64_t mtime = 0;
  };
  DIR* d = ::opendir(dir_.c_str());
  if (d == nullptr) return;  // best-effort: an unlistable dir evicts nothing
  std::vector<Entry> entries;
  std::int64_t total = 0;
  for (struct dirent* ent = ::readdir(d); ent != nullptr;
       ent = ::readdir(d)) {
    const std::string name = ent->d_name;
    if (name.size() <= 5 || name.compare(name.size() - 5, 5, ".cell") != 0) {
      continue;
    }
    Entry e;
    e.key = name.substr(0, name.size() - 5);
    struct stat st{};
    if (stat(pathFor(e.key).c_str(), &st) != 0) continue;
    e.bytes = static_cast<std::int64_t>(st.st_size);
    e.mtime = static_cast<std::int64_t>(st.st_mtime);
    total += e.bytes;
    entries.push_back(std::move(e));
  }
  ::closedir(d);
  if (total <= quotaBytes_) return;

  // LRU by mtime, never evicting a key this run touched: those entries
  // back results a --verify may re-derive minutes from now. Keys noted
  // by any concurrently LIVE process (its flock-held liveness lock in
  // this directory) are equally protected — run A must not evict an
  // entry run B stored seconds ago and is about to reload. If the
  // current run alone exceeds the quota, the cache simply runs over —
  // the quota is best-effort hygiene, not a hard reservation.
  const std::vector<std::string> liveTokens = liveNotedTokens(dir_);
  std::unordered_set<std::string> liveKeys(liveTokens.begin(),
                                           liveTokens.end());
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.mtime < b.mtime; });
  for (const Entry& e : entries) {
    if (total <= quotaBytes_) break;
    if (std::find(touchedKeys_.begin(), touchedKeys_.end(), e.key) !=
        touchedKeys_.end()) {
      continue;
    }
    if (liveKeys.count(e.key) != 0) {
      ++stats_.evictionsSkippedLive;
      continue;
    }
    if (sysio::unlink(pathFor(e.key).c_str()) != 0) continue;
    total -= e.bytes;
    ++stats_.evicted;
  }
}

}  // namespace mbf
