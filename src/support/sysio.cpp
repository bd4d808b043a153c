#include "support/sysio.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

namespace mbf {
namespace sysio {
namespace {

// Shim state. `active` is the only thing the hot path reads when the
// shim is disarmed; everything else is touched only while armed or
// counting. Counters are relaxed atomics: the op index a concurrent run
// observes is schedule-dependent anyway, and the drills assert outcome
// classes, not which thread lost the race.
std::atomic<bool> gActive{false};
std::atomic<std::uint64_t> gOpCount{0};
std::atomic<std::uint64_t> gPerOp[9] = {};  // indexed by Op
std::atomic<int> gStormRemaining{0};
std::atomic<bool> gFired{false};

std::mutex gSpecMutex;
FaultSpec gSpec;
bool gStatsAtexitRegistered = false;
std::string gStatsPath;

/// One-time env arming. Runs before main() (static init of this
/// translation unit) so every process — the CLI, the test binaries —
/// observes the schedule from its very first op; forked workers inherit
/// it.
struct EnvInit {
  EnvInit() {
    const char* fault = std::getenv("MBF_SYSIO_FAULT");
    const char* stats = std::getenv("MBF_SYSIO_STATS");
    if (stats != nullptr && stats[0] != '\0') {
      gStatsPath = stats;
      std::atexit(writeStatsLine);
      gStatsAtexitRegistered = true;
      gActive.store(true, std::memory_order_relaxed);
    }
    if (fault != nullptr && fault[0] != '\0') {
      FaultSpec spec;
      if (parseFaultSpec(fault, spec)) {
        gSpec = spec;
        if (spec.mode == FaultMode::kEintrStorm) {
          // Armed lazily when the index matches; nothing to do yet.
        }
        gActive.store(true, std::memory_order_relaxed);
      } else {
        std::fprintf(stderr,
                     "sysio: ignoring unparseable MBF_SYSIO_FAULT='%s'\n",
                     fault);
      }
    }
  }
};
EnvInit gEnvInit;

/// Zeroes the op counters and re-arms a consumed one-shot fault; the
/// caller holds gSpecMutex.
void resetCountsLocked() {
  gOpCount.store(0, std::memory_order_relaxed);
  for (auto& c : gPerOp) c.store(0, std::memory_order_relaxed);
  gStormRemaining.store(0, std::memory_order_relaxed);
  gFired.store(false, std::memory_order_relaxed);
}

/// Decides whether this op faults. Returns the errno to deliver, 0 for
/// "run the real syscall", or -1 for "short write" (write only).
int consult(Op op) {
  const std::uint64_t index =
      gOpCount.fetch_add(1, std::memory_order_relaxed) + 1;
  const std::uint64_t opIndex =
      gPerOp[static_cast<int>(op)].fetch_add(1, std::memory_order_relaxed) + 1;

  // An in-flight EINTR storm outranks the schedule: it was started by a
  // matched op and must drain deterministically.
  if (gStormRemaining.load(std::memory_order_relaxed) > 0) {
    std::lock_guard<std::mutex> lock(gSpecMutex);
    if (gStormRemaining.load(std::memory_order_relaxed) > 0 &&
        (gSpec.op == Op::kAny || gSpec.op == op)) {
      gStormRemaining.fetch_sub(1, std::memory_order_relaxed);
      return EINTR;
    }
  }

  std::lock_guard<std::mutex> lock(gSpecMutex);
  if (gSpec.failAt == 0) return 0;
  if (gSpec.op != Op::kAny && gSpec.op != op) return 0;

  // Index the schedule by *matching* ops, not all ops: "write@3" means
  // the third write, regardless of interleaved opens and fsyncs.
  const std::uint64_t matchIndex = gSpec.op == Op::kAny ? index : opIndex;
  const bool hit = gSpec.sticky ? matchIndex >= gSpec.failAt
                                : matchIndex == gSpec.failAt;
  if (!hit) return 0;
  if (!gSpec.sticky && gFired.exchange(true)) return 0;

  switch (gSpec.mode) {
    case FaultMode::kErrno:
      return gSpec.err;
    case FaultMode::kShortWrite:
      return op == Op::kWrite ? -1 : 0;
    case FaultMode::kEintrStorm:
      gStormRemaining.store(gSpec.stormLength - 1, std::memory_order_relaxed);
      return EINTR;
  }
  return 0;
}

}  // namespace

const char* toString(Op op) {
  switch (op) {
    case Op::kAny: return "any";
    case Op::kOpen: return "open";
    case Op::kRead: return "read";
    case Op::kWrite: return "write";
    case Op::kFsync: return "fsync";
    case Op::kClose: return "close";
    case Op::kRename: return "rename";
    case Op::kUnlink: return "unlink";
    case Op::kMkdir: return "mkdir";
  }
  return "?";
}

bool parseFaultSpec(const std::string& text, FaultSpec& out) {
  const std::size_t at = text.find('@');
  const std::size_t colon = text.find(':', at == std::string::npos ? 0 : at);
  if (at == std::string::npos || colon == std::string::npos || at == 0 ||
      colon <= at + 1 || colon + 1 >= text.size()) {
    return false;
  }
  FaultSpec spec;
  const std::string opText = text.substr(0, at);
  bool opFound = false;
  for (int i = 0; i <= static_cast<int>(Op::kMkdir); ++i) {
    if (opText == toString(static_cast<Op>(i))) {
      spec.op = static_cast<Op>(i);
      opFound = true;
      break;
    }
  }
  if (!opFound) return false;

  const std::string indexText = text.substr(at + 1, colon - at - 1);
  if (indexText.empty() ||
      indexText.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  spec.failAt = std::strtoull(indexText.c_str(), nullptr, 10);
  if (spec.failAt == 0) return false;

  std::string fault = text.substr(colon + 1);
  if (!fault.empty() && fault.back() == '!') {
    spec.sticky = true;
    fault.pop_back();
  }
  if (fault == "enospc") {
    spec.err = ENOSPC;
  } else if (fault == "eio") {
    spec.err = EIO;
  } else if (fault == "edquot") {
    spec.err = EDQUOT;
  } else if (fault == "erofs") {
    spec.err = EROFS;
  } else if (fault == "enoent") {
    spec.err = ENOENT;
  } else if (fault == "eintr") {
    spec.err = EINTR;
  } else if (fault == "short") {
    spec.mode = FaultMode::kShortWrite;
    if (spec.op != Op::kWrite && spec.op != Op::kAny) return false;
  } else if (fault.rfind("eintrx", 0) == 0) {
    const std::string k = fault.substr(6);
    if (k.empty() || k.find_first_not_of("0123456789") != std::string::npos) {
      return false;
    }
    spec.mode = FaultMode::kEintrStorm;
    spec.stormLength = std::atoi(k.c_str());
    if (spec.stormLength < 1) return false;
    if (spec.sticky) return false;  // a storm is bounded by definition
  } else {
    return false;
  }
  out = spec;
  return true;
}

void arm(const FaultSpec& spec) {
  std::lock_guard<std::mutex> lock(gSpecMutex);
  gSpec = spec;
  resetCountsLocked();
  gActive.store(true, std::memory_order_relaxed);
}

void disarm() {
  std::lock_guard<std::mutex> lock(gSpecMutex);
  gSpec = FaultSpec{};
  gStormRemaining.store(0, std::memory_order_relaxed);
  gFired.store(false, std::memory_order_relaxed);
  // Keep counting when a stats file was requested: the drill needs op
  // totals from clean reference runs too.
  gActive.store(gStatsAtexitRegistered, std::memory_order_relaxed);
}

bool armed() {
  std::lock_guard<std::mutex> lock(gSpecMutex);
  return gSpec.failAt != 0;
}

std::uint64_t opCount() { return gOpCount.load(std::memory_order_relaxed); }

void restartCounting() {
  std::lock_guard<std::mutex> lock(gSpecMutex);
  resetCountsLocked();
}

/// Appends this process's op counts to MBF_SYSIO_STATS using raw
/// syscalls only — the stats channel must keep working while the shim
/// itself is busy failing everything.
void writeStatsLine() {
  if (gStatsPath.empty()) return;
  char line[256];
  const int n = std::snprintf(
      line, sizeof line,
      "pid %ld total %llu open %llu read %llu write %llu fsync %llu "
      "close %llu rename %llu unlink %llu mkdir %llu\n",
      static_cast<long>(::getpid()),
      static_cast<unsigned long long>(gOpCount.load()),
      static_cast<unsigned long long>(gPerOp[1].load()),
      static_cast<unsigned long long>(gPerOp[2].load()),
      static_cast<unsigned long long>(gPerOp[3].load()),
      static_cast<unsigned long long>(gPerOp[4].load()),
      static_cast<unsigned long long>(gPerOp[5].load()),
      static_cast<unsigned long long>(gPerOp[6].load()),
      static_cast<unsigned long long>(gPerOp[7].load()),
      static_cast<unsigned long long>(gPerOp[8].load()));
  if (n <= 0) return;
  const int fd = ::open(gStatsPath.c_str(),
                        O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) return;
  // O_APPEND + one write: lines from concurrent processes interleave
  // whole, never torn (short writes are vanishingly unlikely at this
  // size; a torn line is skipped by the reader).
  ssize_t ignored = ::write(fd, line, static_cast<std::size_t>(n));
  (void)ignored;
  ::close(fd);
}

int open(const char* path, int flags, ::mode_t mode) {
  if (gActive.load(std::memory_order_relaxed)) {
    const int err = consult(Op::kOpen);
    if (err > 0) {
      errno = err;
      return -1;
    }
  }
  return ::open(path, flags, mode);
}

ssize_t read(int fd, void* buf, std::size_t count) {
  if (gActive.load(std::memory_order_relaxed)) {
    const int err = consult(Op::kRead);
    if (err > 0) {
      errno = err;
      return -1;
    }
  }
  return ::read(fd, buf, count);
}

ssize_t write(int fd, const void* buf, std::size_t count) {
  if (gActive.load(std::memory_order_relaxed)) {
    const int err = consult(Op::kWrite);
    if (err > 0) {
      errno = err;
      return -1;
    }
    if (err == -1 && count > 1) {
      // Short write: deliver half the buffer for real, report the short
      // count, and let the caller's resume-from-the-tail logic finish
      // the job — the artifact must still come out byte-identical.
      return ::write(fd, buf, count / 2);
    }
  }
  return ::write(fd, buf, count);
}

int fsync(int fd) {
  if (gActive.load(std::memory_order_relaxed)) {
    const int err = consult(Op::kFsync);
    if (err > 0) {
      errno = err;
      return -1;
    }
  }
  return ::fsync(fd);
}

int close(int fd) {
  if (gActive.load(std::memory_order_relaxed)) {
    const int err = consult(Op::kClose);
    if (err > 0) {
      // A failed close still releases the descriptor on Linux — mirror
      // that, or every faulted close would leak an fd and the sweep
      // drill would exhaust the table.
      ::close(fd);
      errno = err;
      return -1;
    }
  }
  return ::close(fd);
}

int rename(const char* oldPath, const char* newPath) {
  if (gActive.load(std::memory_order_relaxed)) {
    const int err = consult(Op::kRename);
    if (err > 0) {
      errno = err;
      return -1;
    }
  }
  return ::rename(oldPath, newPath);
}

int unlink(const char* path) {
  if (gActive.load(std::memory_order_relaxed)) {
    const int err = consult(Op::kUnlink);
    if (err > 0) {
      errno = err;
      return -1;
    }
  }
  return ::unlink(path);
}

int mkdir(const char* path, ::mode_t mode) {
  if (gActive.load(std::memory_order_relaxed)) {
    const int err = consult(Op::kMkdir);
    if (err > 0) {
      errno = err;
      return -1;
    }
  }
  return ::mkdir(path, mode);
}

}  // namespace sysio
}  // namespace mbf
