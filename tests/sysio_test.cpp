// Chaos-layer unit tests (DESIGN.md section 18): the injectable syscall
// shim itself (fault-spec parsing, exact-index firing, sticky faults,
// short writes, EINTR storms), the degrade-don't-die contracts built on
// it (atomic writes leave destinations intact under ENOSPC, missing
// files are kNotFound while a sick filesystem is kIoError, the journal's
// checked close, cell-cache self-disable and quota eviction), and the
// stale-temp sweeper.
#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "io/atomic_file.h"
#include "mdp/cell_cache.h"
#include "support/journal.h"
#include "support/sysio.h"

namespace mbf {
namespace {

/// Every test disarms on exit so a failing assertion cannot leak an
/// armed fault schedule into the next test.
class SysioTest : public ::testing::Test {
 protected:
  void TearDown() override { sysio::disarm(); }

  std::string tempDir() {
    std::string dir = ::testing::TempDir() + "sysio_" +
                      ::testing::UnitTest::GetInstance()
                          ->current_test_info()
                          ->name();
    std::system(("rm -rf '" + dir + "' && mkdir -p '" + dir + "'").c_str());
    return dir;
  }

  bool exists(const std::string& path) {
    struct stat st {};
    return ::stat(path.c_str(), &st) == 0;
  }

  int countTempFiles(const std::string& dir) {
    std::string cmd = "ls '" + dir + "' | grep -c '\\.tmp\\.' || true";
    FILE* p = ::popen(cmd.c_str(), "r");
    if (p == nullptr) return -1;
    int n = -1;
    if (std::fscanf(p, "%d", &n) != 1) n = -1;
    ::pclose(p);
    return n;
  }
};

TEST_F(SysioTest, ParseAcceptsDocumentedSpellings) {
  sysio::FaultSpec spec;
  ASSERT_TRUE(sysio::parseFaultSpec("write@17:enospc!", spec));
  EXPECT_EQ(spec.op, sysio::Op::kWrite);
  EXPECT_EQ(spec.failAt, 17u);
  EXPECT_EQ(spec.mode, sysio::FaultMode::kErrno);
  EXPECT_EQ(spec.err, ENOSPC);
  EXPECT_TRUE(spec.sticky);

  ASSERT_TRUE(sysio::parseFaultSpec("fsync@3:eio", spec));
  EXPECT_EQ(spec.op, sysio::Op::kFsync);
  EXPECT_EQ(spec.err, EIO);
  EXPECT_FALSE(spec.sticky);

  ASSERT_TRUE(sysio::parseFaultSpec("any@40:eintrx8", spec));
  EXPECT_EQ(spec.op, sysio::Op::kAny);
  EXPECT_EQ(spec.mode, sysio::FaultMode::kEintrStorm);
  EXPECT_EQ(spec.stormLength, 8);

  ASSERT_TRUE(sysio::parseFaultSpec("write@2:short", spec));
  EXPECT_EQ(spec.mode, sysio::FaultMode::kShortWrite);

  ASSERT_TRUE(sysio::parseFaultSpec("open@1:enoent", spec));
  EXPECT_EQ(spec.err, ENOENT);
  ASSERT_TRUE(sysio::parseFaultSpec("rename@2:erofs", spec));
  EXPECT_EQ(spec.err, EROFS);
  ASSERT_TRUE(sysio::parseFaultSpec("mkdir@1:edquot", spec));
  EXPECT_EQ(spec.err, EDQUOT);
  ASSERT_TRUE(sysio::parseFaultSpec("close@5:eio", spec));
  EXPECT_EQ(spec.op, sysio::Op::kClose);
  ASSERT_TRUE(sysio::parseFaultSpec("read@4:eintr", spec));
  EXPECT_EQ(spec.err, EINTR);
  EXPECT_EQ(spec.mode, sysio::FaultMode::kErrno);
}

TEST_F(SysioTest, ParseRejectsMalformedSpecs) {
  sysio::FaultSpec spec;
  EXPECT_FALSE(sysio::parseFaultSpec("", spec));
  EXPECT_FALSE(sysio::parseFaultSpec("write@0:enospc", spec));  // 1-based
  EXPECT_FALSE(sysio::parseFaultSpec("write@x:enospc", spec));
  EXPECT_FALSE(sysio::parseFaultSpec("bogus@1:eio", spec));
  EXPECT_FALSE(sysio::parseFaultSpec("write@1:badfault", spec));
  EXPECT_FALSE(sysio::parseFaultSpec("read@1:short", spec));  // write-only
  EXPECT_FALSE(sysio::parseFaultSpec("write@1:eintrx0", spec));
  EXPECT_FALSE(sysio::parseFaultSpec("write@1:eintrx2!", spec));  // no sticky
  EXPECT_FALSE(sysio::parseFaultSpec("write@1", spec));
  EXPECT_FALSE(sysio::parseFaultSpec("@1:eio", spec));
  EXPECT_FALSE(sysio::parseFaultSpec("write:enospc", spec));
}

TEST_F(SysioTest, DisarmedWrappersPassThrough) {
  EXPECT_FALSE(sysio::armed());
  const std::string dir = tempDir();
  const std::string path = dir + "/plain.txt";
  const int fd = sysio::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(sysio::write(fd, "hello", 5), 5);
  EXPECT_EQ(sysio::fsync(fd), 0);
  EXPECT_EQ(sysio::close(fd), 0);
  std::string back;
  ASSERT_TRUE(readFileToString(path, back).ok());
  EXPECT_EQ(back, "hello");
  EXPECT_EQ(sysio::unlink(path.c_str()), 0);
  EXPECT_FALSE(exists(path));
}

TEST_F(SysioTest, ErrnoFaultFiresOnExactIndexOnce) {
  const std::string dir = tempDir();
  const int fd =
      sysio::open((dir + "/f").c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  sysio::FaultSpec spec;
  ASSERT_TRUE(sysio::parseFaultSpec("write@2:enospc", spec));
  sysio::arm(spec);
  EXPECT_EQ(sysio::write(fd, "a", 1), 1);  // #1 passes
  errno = 0;
  EXPECT_EQ(sysio::write(fd, "b", 1), -1);  // #2 faults
  EXPECT_EQ(errno, ENOSPC);
  EXPECT_EQ(sysio::write(fd, "c", 1), 1);  // one-shot: #3 passes
  sysio::disarm();
  ASSERT_EQ(::close(fd), 0);
}

TEST_F(SysioTest, StickyFaultKeepsFiring) {
  const std::string dir = tempDir();
  const int fd =
      sysio::open((dir + "/f").c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  sysio::FaultSpec spec;
  ASSERT_TRUE(sysio::parseFaultSpec("write@1:eio!", spec));
  sysio::arm(spec);
  for (int i = 0; i < 3; ++i) {
    errno = 0;
    EXPECT_EQ(sysio::write(fd, "x", 1), -1);
    EXPECT_EQ(errno, EIO);
  }
  sysio::disarm();
  ASSERT_EQ(::close(fd), 0);
}

TEST_F(SysioTest, AtomicWriteEnospcLeavesDestinationIntact) {
  const std::string dir = tempDir();
  const std::string path = dir + "/artifact.bin";
  ASSERT_TRUE(atomicWriteFile(path, "old content").ok());

  sysio::FaultSpec spec;
  ASSERT_TRUE(sysio::parseFaultSpec("write@1:enospc!", spec));
  sysio::arm(spec);
  const Status st = atomicWriteFile(path, "NEW CONTENT THAT MUST NOT LAND");
  sysio::disarm();
  EXPECT_EQ(st.code(), StatusCode::kIoError);

  std::string back;
  ASSERT_TRUE(readFileToString(path, back).ok());
  EXPECT_EQ(back, "old content");         // destination untouched
  EXPECT_EQ(countTempFiles(dir), 0);      // temp unlinked on failure
}

TEST_F(SysioTest, ShortWriteIsTransparentToAtomicWrite) {
  const std::string dir = tempDir();
  const std::string path = dir + "/artifact.bin";
  const std::string payload(4096, 'q');
  sysio::FaultSpec spec;
  ASSERT_TRUE(sysio::parseFaultSpec("write@1:short", spec));
  sysio::arm(spec);
  ASSERT_TRUE(atomicWriteFile(path, payload).ok());
  sysio::disarm();
  std::string back;
  ASSERT_TRUE(readFileToString(path, back).ok());
  EXPECT_EQ(back, payload);  // the retry loop resumed the unwritten tail
}

TEST_F(SysioTest, EintrStormIsAbsorbed) {
  const std::string dir = tempDir();
  const std::string path = dir + "/artifact.bin";
  sysio::FaultSpec spec;
  ASSERT_TRUE(sysio::parseFaultSpec("write@1:eintrx4", spec));
  sysio::arm(spec);
  ASSERT_TRUE(atomicWriteFile(path, "survives the storm").ok());
  sysio::disarm();
  std::string back;
  ASSERT_TRUE(readFileToString(path, back).ok());
  EXPECT_EQ(back, "survives the storm");
}

TEST_F(SysioTest, MissingFileIsNotFoundNotIoError) {
  const std::string dir = tempDir();
  std::string out;
  const Status st = readFileToString(dir + "/absent", out);
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_TRUE(out.empty());

  std::string hex;
  EXPECT_EQ(readHashSidecar(dir + "/absent", hex).code(), StatusCode::kNotFound);
}

TEST_F(SysioTest, ReadFaultIsIoErrorNotNotFound) {
  const std::string dir = tempDir();
  const std::string path = dir + "/present";
  ASSERT_TRUE(atomicWriteFile(path, "bytes").ok());

  sysio::FaultSpec spec;
  ASSERT_TRUE(sysio::parseFaultSpec("read@1:eio!", spec));
  sysio::arm(spec);
  std::string out;
  const Status st = readFileToString(path, out);
  sysio::disarm();
  // The file exists; the filesystem is sick. This must never look like
  // a cache miss or an optional sidecar being absent.
  EXPECT_EQ(st.code(), StatusCode::kIoError);
}

TEST_F(SysioTest, InjectedEnoentOnOpenStillMapsToNotFound) {
  const std::string dir = tempDir();
  const std::string path = dir + "/present";
  ASSERT_TRUE(atomicWriteFile(path, "bytes").ok());
  sysio::FaultSpec spec;
  ASSERT_TRUE(sysio::parseFaultSpec("open@1:enoent", spec));
  sysio::arm(spec);
  std::string out;
  const Status st = readFileToString(path, out);
  sysio::disarm();
  EXPECT_EQ(st.code(), StatusCode::kNotFound);  // classified by errno
}

TEST_F(SysioTest, SweepRemovesDeadWriterTempsOnly) {
  const std::string dir = tempDir();
  // A pid that provably no longer exists: a child that already exited
  // and was reaped (the pid cannot be recycled while we hold the reap).
  const pid_t dead = ::fork();
  ASSERT_GE(dead, 0);
  if (dead == 0) ::_exit(0);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(dead, &wstatus, 0), dead);

  const std::string deadTemp =
      dir + "/art.shots.tmp." + std::to_string(dead);
  const std::string liveTemp =
      dir + "/art.shots.tmp." + std::to_string(::getpid());
  const std::string plain = dir + "/plain.txt";
  const std::string badPid = dir + "/x.tmp.notapid";
  for (const std::string& p : {deadTemp, liveTemp, plain, badPid}) {
    std::ofstream(p) << "debris";
  }

  EXPECT_EQ(sweepStaleTempFiles(dir), 1);
  EXPECT_FALSE(exists(deadTemp));  // dead writer: removed
  EXPECT_TRUE(exists(liveTemp));   // we are alive: kept
  EXPECT_TRUE(exists(plain));      // not a temp: kept
  EXPECT_TRUE(exists(badPid));     // unparseable pid: kept

  EXPECT_EQ(sweepStaleTempFiles(dir + "/no-such-dir"), 0);
}

// --- Advisory liveness protocol (DESIGN.md section 19) -------------------

/// A fake "concurrent process": a lock file under an arbitrary pid,
/// flock'd LOCK_EX on its own descriptor. flock attaches to the open
/// file description, so probes from this same process (which open their
/// own descriptor) correctly read EWOULDBLOCK -> live.
class FakeLiveWriter {
 public:
  FakeLiveWriter(const std::string& dir, long pid) {
    path_ = dir + "/.mbf-live." + std::to_string(pid) + ".lck";
    fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd_ >= 0 && ::flock(fd_, LOCK_EX | LOCK_NB) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~FakeLiveWriter() { die(); }
  bool alive() const { return fd_ >= 0; }
  void note(const std::string& token) {
    const std::string line = token + "\n";
    (void)!::write(fd_, line.data(), line.size());
  }
  /// Releases the flock (keeps the file): the "process" crashed.
  void die() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  std::string path_;
  int fd_ = -1;
};

TEST_F(SysioTest, SweepSparesLockHeldWritersRegardlessOfPid) {
  const std::string dir = tempDir();
  // A pid far beyond any real process: the legacy kill(pid, 0) probe
  // reads ESRCH ("dead") — the held lock must overrule it.
  const long ghost = 3999999;
  FakeLiveWriter writer(dir, ghost);
  ASSERT_TRUE(writer.alive());
  const std::string temp = dir + "/out.shots.tmp." + std::to_string(ghost);
  std::ofstream(temp) << "in-flight bytes";

  EXPECT_EQ(sweepStaleTempFiles(dir), 0);
  EXPECT_TRUE(exists(temp)) << "live-locked writer's temp must survive";

  // The writer dies (lock released, file left behind — a crash never
  // unlinks): now the temp AND the stale lock file are provably orphaned.
  writer.die();
  EXPECT_EQ(sweepStaleTempFiles(dir), 1);
  EXPECT_FALSE(exists(temp));
  EXPECT_FALSE(exists(dir + "/.mbf-live." + std::to_string(ghost) + ".lck"));
}

TEST_F(SysioTest, SweepRemovesTempOfAlivePidWhoseLockIsUnheld) {
  const std::string dir = tempDir();
  // The PID-reuse hazard, inverted: OUR pid is alive (kill(pid, 0)
  // succeeds), but the lock file under it is unheld — so the original
  // writer of these temps is dead and our pid merely recycled its
  // number. The protocol must trust the lock, not the pid.
  const long self = static_cast<long>(::getpid());
  std::ofstream(dir + "/.mbf-live." + std::to_string(self) + ".lck")
      << "stale tokens\n";
  const std::string temp = dir + "/out.shots.tmp." + std::to_string(self);
  std::ofstream(temp) << "orphan bytes";

  EXPECT_EQ(sweepStaleTempFiles(dir), 1);
  EXPECT_FALSE(exists(temp))
      << "unheld lock proves the writer dead even though the pid is live";
}

TEST_F(SysioTest, ProbeAndNotedTokensFollowTheLockLifecycle) {
  const std::string dir = tempDir();
  const long self = static_cast<long>(::getpid());
  EXPECT_EQ(probeWriterLiveness(dir, self), WriterLiveness::kUnknown);

  DirLivenessLock lock;
  lock.acquire(dir);
  ASSERT_TRUE(lock.held());
  EXPECT_EQ(probeWriterLiveness(dir, self), WriterLiveness::kLive);
  lock.note("cafe01");
  lock.note("beef02");
  const std::vector<std::string> tokens = liveNotedTokens(dir);
  EXPECT_EQ(tokens.size(), 2u);
  EXPECT_TRUE(std::find(tokens.begin(), tokens.end(), "cafe01") !=
              tokens.end());
  EXPECT_TRUE(std::find(tokens.begin(), tokens.end(), "beef02") !=
              tokens.end());

  lock.release();
  EXPECT_FALSE(lock.held());
  // release() unlinks: a later probe reads "no such writer", not "dead".
  EXPECT_EQ(probeWriterLiveness(dir, self), WriterLiveness::kUnknown);
  EXPECT_TRUE(liveNotedTokens(dir).empty());
}

TEST_F(SysioTest, StaleLivenessLocksAreSweptDeadOnesOnly) {
  const std::string dir = tempDir();
  FakeLiveWriter live(dir, 3999998);
  ASSERT_TRUE(live.alive());
  std::ofstream(dir + "/.mbf-live.3999997.lck") << "tokens of the dead\n";
  EXPECT_EQ(probeWriterLiveness(dir, 3999997), WriterLiveness::kDead);
  EXPECT_EQ(probeWriterLiveness(dir, 3999998), WriterLiveness::kLive);
  EXPECT_EQ(sweepStaleLivenessLocks(dir), 1);
  EXPECT_FALSE(exists(dir + "/.mbf-live.3999997.lck"));
  EXPECT_TRUE(exists(dir + "/.mbf-live.3999998.lck"));
}

TEST_F(SysioTest, CloseCheckedSurfacesEioUnderEachRecord) {
  const std::string dir = tempDir();
  JournalWriter writer;
  ASSERT_TRUE(
      writer.create(dir + "/j", "meta", JournalFsync::kEachRecord).ok());
  ASSERT_TRUE(writer.append("record").ok());

  sysio::FaultSpec spec;
  ASSERT_TRUE(sysio::parseFaultSpec("close@1:eio", spec));
  sysio::arm(spec);
  const Status st = writer.closeChecked();
  sysio::disarm();
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_FALSE(writer.isOpen());  // the fd is gone either way
  EXPECT_TRUE(writer.closeChecked().ok());  // already closed: kOk
}

TEST_F(SysioTest, CloseCheckedSwallowsEioUnderNonePolicy) {
  const std::string dir = tempDir();
  JournalWriter writer;
  ASSERT_TRUE(writer.create(dir + "/j", "meta", JournalFsync::kNone).ok());
  ASSERT_TRUE(writer.append("record").ok());
  sysio::FaultSpec spec;
  ASSERT_TRUE(sysio::parseFaultSpec("close@1:eio", spec));
  sysio::arm(spec);
  // kNone only ever promised page-cache durability; a close error adds
  // nothing actionable and must not fail runs that opted out of fsync.
  EXPECT_TRUE(writer.closeChecked().ok());
  sysio::disarm();
}

CellRecord trivialCell(const std::string& key) {
  CellRecord cell;
  cell.key = key;
  Solution sol;
  sol.shots = {Rect{0, 0, 10, 10}};
  cell.solutions.push_back(sol);
  cell.reports.emplace_back();
  return cell;
}

TEST_F(SysioTest, CellCacheDisablesItselfAfterStoreFailure) {
  const std::string dir = tempDir() + "/cache";
  CellFractureCache cache(dir);
  ASSERT_TRUE(cache.prepare().ok());

  sysio::FaultSpec spec;
  ASSERT_TRUE(sysio::parseFaultSpec("write@1:enospc!", spec));
  sysio::arm(spec);
  const Status st = cache.store(trivialCell("deadbeef"));
  sysio::disarm();

  EXPECT_EQ(st.code(), StatusCode::kIoError);  // returned once, for the log
  EXPECT_TRUE(cache.disabled());
  EXPECT_EQ(cache.stats().ioErrors, 1);
  EXPECT_EQ(cache.stats().stored, 0);
  EXPECT_FALSE(exists(cache.pathFor("deadbeef")));  // no half-written entry
  EXPECT_EQ(countTempFiles(dir), 0);

  // Disabled cache: stores are silent no-ops, loads are plain misses.
  EXPECT_TRUE(cache.store(trivialCell("cafef00d")).ok());
  EXPECT_EQ(cache.stats().stored, 0);
  CellRecord out = trivialCell("deadbeef");
  EXPECT_EQ(cache.load(out), CellFractureCache::Lookup::kMiss);
  EXPECT_EQ(cache.stats().ioErrors, 1);  // counted once, not per op
}

TEST_F(SysioTest, CellCacheQuotaEvictsOnlyUntouchedEntries) {
  const std::string dir = tempDir() + "/cache";
  // A previous run populates two entries.
  {
    CellFractureCache warmup(dir);
    ASSERT_TRUE(warmup.prepare().ok());
    ASSERT_TRUE(warmup.store(trivialCell("oldkey1")).ok());
    ASSERT_TRUE(warmup.store(trivialCell("oldkey2")).ok());
  }
  // This run stores one entry under an absurdly small quota: both cold
  // entries are evictable, the entry this run touched is not.
  CellFractureCache cache(dir);
  ASSERT_TRUE(cache.prepare().ok());
  cache.setQuotaBytes(1);
  ASSERT_TRUE(cache.store(trivialCell("newkey")).ok());

  EXPECT_EQ(cache.stats().evicted, 2);
  EXPECT_FALSE(exists(cache.pathFor("oldkey1")));
  EXPECT_FALSE(exists(cache.pathFor("oldkey2")));
  EXPECT_TRUE(exists(cache.pathFor("newkey")));  // touched: never evicted

  // The surviving entry is still a verified hit for a fresh cache.
  CellFractureCache reread(dir);
  ASSERT_TRUE(reread.prepare().ok());
  CellRecord out;
  out.key = "newkey";
  EXPECT_EQ(reread.load(out), CellFractureCache::Lookup::kHit);
}

}  // namespace
}  // namespace mbf
