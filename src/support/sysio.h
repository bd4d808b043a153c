// Injectable syscall shim for the persistent-artifact I/O paths
// (DESIGN.md section 18). Every open/read/write/fsync/close/rename/
// unlink/mkdir that touches a durable artifact — atomic writes and hash
// sidecars (io/atomic_file), the result journal (support/journal), the
// persistent cell cache (mdp/cell_cache), supervisor scratch files
// (mdp/supervisor) — goes through these wrappers instead of the raw
// syscall, so a test can make any single I/O operation of a real run
// fail with a chosen errno and prove the process degrades or dies with
// a documented exit code instead of shipping a corrupt artifact.
//
// Fault schedule: deterministic, armed either programmatically (arm())
// or from the MBF_SYSIO_FAULT environment variable, which every process
// of a run — mbf_cli and its forked --isolate workers — observes: a
// forked worker inherits the armed schedule and restartCounting() makes
// its op indices its own. One spec names an op kind, a 1-based index
// among matching ops, and a fault:
//
//   MBF_SYSIO_FAULT=<op>@<n>:<fault>[!]
//
//   op:     any | open | read | write | fsync | close | rename |
//           unlink | mkdir
//   n:      the nth matching op observed by this process faults
//   fault:  enospc | eio | edquot | erofs | enoent | eintr  (errno
//           faults), short (write writes half and reports it), or
//           eintrx<k> (that op and the next k-1 of its kind return
//           EINTR — an EINTR storm the retry paths must absorb)
//   !:      sticky — every matching op from n on fails (a full filer
//           stays full); without it the fault is one-shot
//
// Op counting: MBF_SYSIO_STATS=<path> appends one line of per-op counts
// at process exit, or at writeStatsLine() for a process that leaves
// through _exit (raw syscalls, so the stats write cannot fault itself).
// The first-failure sweep drill runs a clean reference run to learn N,
// then replays the run once per op index 1..N with a fault injected
// there.
//
// Overhead when disarmed: one relaxed atomic load per wrapper, then the
// raw syscall — no counting, no locks. The shim never changes
// arguments, buffering or ordering, so a disarmed run is byte-identical
// to one calling the syscalls directly.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <string>

namespace mbf {
namespace sysio {

enum class Op : std::uint8_t {
  kAny = 0,
  kOpen,
  kRead,
  kWrite,
  kFsync,
  kClose,
  kRename,
  kUnlink,
  kMkdir,
};

const char* toString(Op op);

enum class FaultMode : std::uint8_t {
  kErrno,       ///< the op fails with `err`
  kShortWrite,  ///< write() writes half the buffer and reports it
  kEintrStorm,  ///< the op and the next stormLength-1 of its kind EINTR
};

struct FaultSpec {
  Op op = Op::kAny;
  std::uint64_t failAt = 0;  ///< 1-based index of the matching op; 0 = off
  FaultMode mode = FaultMode::kErrno;
  int err = 0;             ///< errno delivered in kErrno mode
  int stormLength = 0;     ///< consecutive EINTRs in kEintrStorm mode
  bool sticky = false;     ///< fail every matching op from failAt on
};

/// Parses the MBF_SYSIO_FAULT spelling ("write@17:enospc!",
/// "fsync@3:eio", "any@40:eintrx8"). Returns false on anything else.
bool parseFaultSpec(const std::string& text, FaultSpec& out);

/// Arms `spec` for this process (tests; runs arm via the env var).
/// Resets the op counter so indices are relative to the arm point.
void arm(const FaultSpec& spec);

/// Disarms and stops counting. Safe to call when never armed.
void disarm();

/// True when a fault schedule is armed (env or arm()).
bool armed();

/// Ops observed since arming (or since counting started). The sweep
/// drill sizes its fault schedule from this via MBF_SYSIO_STATS.
std::uint64_t opCount();

/// Restarts op counting in a forked child: zeroes the op index and the
/// per-op counts and re-arms a consumed one-shot fault (or a storm in
/// flight), so the schedule and the stats line count this process's own
/// ops, as they do in a freshly started process. The schedule is kept.
void restartCounting();

/// Appends this process's MBF_SYSIO_STATS line now; a no-op without the
/// variable. For a process that leaves through _exit, which skips the
/// atexit hook that writes it otherwise.
void writeStatsLine();

/// Syscall wrappers. Exact raw-syscall semantics when disarmed; when a
/// fault fires they return the syscall's failure value with errno set
/// (or a short count, for kShortWrite). EINTR faults are reported like
/// real EINTRs so existing retry loops exercise their real logic.
int open(const char* path, int flags, ::mode_t mode = 0);
ssize_t read(int fd, void* buf, std::size_t count);
ssize_t write(int fd, const void* buf, std::size_t count);
int fsync(int fd);
int close(int fd);
int rename(const char* oldPath, const char* newPath);
int unlink(const char* path);
int mkdir(const char* path, ::mode_t mode);

}  // namespace sysio
}  // namespace mbf
