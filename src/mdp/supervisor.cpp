#include "mdp/supervisor.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <iostream>
#include <thread>

#include "io/atomic_file.h"
#include "support/interrupt.h"
#include "support/journal.h"
#include "support/sysio.h"

namespace mbf {
namespace {

using Clock = std::chrono::steady_clock;

struct RangeTask {
  int begin = 0;
  int end = 0;  ///< exclusive
  int attempts = 0;
  bool degradeOnly = false;
  Clock::time_point eligible = Clock::time_point::min();
};

struct RunningWorker {
  RangeTask task;
  pid_t pid = -1;
  Clock::time_point deadline = Clock::time_point::max();
  bool killedByWatchdog = false;
  std::string journalPath;
  std::string logPath;
  std::int64_t spawnNs = 0;  ///< traceNowNs() at fork (tracing only)
};

std::string rangeTag(const RangeTask& t) {
  return std::to_string(t.begin) + "_" + std::to_string(t.end) +
         (t.degradeOnly ? "_fb" : "");
}

std::string rangeLabel(const RangeTask& t) {
  return "[" + std::to_string(t.begin) + "," + std::to_string(t.end) + ")" +
         (t.degradeOnly ? " fb" : "");
}

double backoffMs(const SupervisorConfig& config, int attempts) {
  constexpr double kBackoffCapMs = 2000.0;
  double ms = config.backoffBaseMs;
  for (int i = 0; i < attempts; ++i) {
    ms *= 2.0;
    if (ms >= kBackoffCapMs) return kBackoffCapMs;
  }
  return std::min(ms, kBackoffCapMs);
}

/// Last few lines of a worker log, for fatal-error diagnostics.
std::string logTail(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return "(no worker log)";
  std::string all;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) all.append(buf, n);
  std::fclose(f);
  if (all.size() > 500) all.erase(0, all.size() - 500);
  for (char& c : all) {
    if (c == '\n') c = ' ';
  }
  return all.empty() ? "(empty worker log)" : all;
}

/// A forked worker's whole life: fill its range with stdout/stderr in
/// the range log, then leave through _exit, so none of the parent's
/// atexit hooks or static destructors run twice. noexcept: an exception
/// escaping the fill terminates the worker (SIGABRT), a crash the
/// supervisor retries, bisects and isolates like any other, never the
/// fatal exit 3.
[[noreturn]] void runWorker(const SupervisorConfig& config,
                            const RangeTask& task,
                            const std::string& journalPath,
                            const std::string& logPath,
                            const std::string& spanPath) noexcept {
  const int logFd =
      ::open(logPath.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (logFd >= 0) {
    ::dup2(logFd, 1);
    ::dup2(logFd, 2);
    ::close(logFd);
  }
  // Start as a fresh process would: sysio op indices of its own, and an
  // empty trace stamped with its own pid.
  sysio::restartCounting();
  TraceRecorder& trace = TraceRecorder::instance();
  trace.clear();
  if (traceEnabled()) trace.enable();

  int code = 0;
  const Status filled =
      config.fill(task.begin, task.end, task.degradeOnly, journalPath);
  if (!filled.ok()) {
    std::cerr << "fracture: " << filled.str() << "\n";
    code = 3;
  } else if (interruptRequested()) {
    code = 5;
  }
  if (!spanPath.empty()) {
    // Best effort: the supervisor reads a missing span file as no spans.
    const Status st = writeSpanFile(spanPath, trace.snapshot());
    if (!st.ok()) std::cerr << "trace: " << st.str() << "\n";
  }
  std::fflush(nullptr);
  sysio::writeStatsLine();
  ::_exit(code);
}

pid_t spawnWorker(const SupervisorConfig& config, const RangeTask& task,
                  const std::string& journalPath, const std::string& logPath,
                  const std::string& spanPath, Status& error) {
  // Output the parent has buffered would otherwise be written again by
  // the worker, into its log.
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    error = Status(StatusCode::kResourceExhausted,
                   std::string("fork failed: ") + std::strerror(errno));
    return -1;
  }
  if (pid == 0) runWorker(config, task, journalPath, logPath, spanPath);
  return pid;
}

}  // namespace

SupervisorResult superviseCells(const SupervisorConfig& config) {
  SupervisorResult result;
  const int n = config.numShapes;
  if (n <= 0) {
    result.status =
        Status(StatusCode::kInvalidArgument, "supervisor needs numShapes > 0");
    return result;
  }
  if (sysio::mkdir(config.workDir.c_str(), 0755) != 0 && errno != EEXIST) {
    result.status = Status(StatusCode::kIoError,
                           "cannot create supervisor work dir '" +
                               config.workDir + "': " + std::strerror(errno));
    return result;
  }

  const int jobs = std::max(1, config.jobs);
  const std::vector<std::pair<int, int>>& ranges = config.initialRanges;
  int work = 0;
  for (const auto& r : ranges) work += std::max(0, r.second - r.first);
  // Several chunks per worker slot: small enough that a crash forfeits
  // little work and bisection starts close to the culprit, large enough
  // that process spawn cost stays amortized.
  const int chunk = std::max(1, (work + jobs * 4 - 1) / (jobs * 4));

  std::deque<RangeTask> queue;
  for (const auto& r : ranges) {
    for (int b = r.first; b < r.second; b += chunk) {
      queue.push_back(RangeTask{b, std::min(r.second, b + chunk)});
    }
  }
  std::vector<RunningWorker> running;
  // Span files ever handed to a worker; retries of one tag overwrite the
  // same file, so each path is read once, at the end.
  std::vector<std::string> spanPaths;

  auto log = [&](const std::string& line) {
    if (config.verbose) std::cerr << "supervisor: " << line << "\n";
  };

  // Harvest every intact record of a (possibly dead) worker's journal.
  // Key validation against the plan is the caller's (it owns the plan),
  // bounds are ours.
  auto harvest = [&](const std::string& journalPath) {
    std::string meta;
    std::vector<std::string> payloads;
    if (!recoverJournal(journalPath, meta, payloads).ok()) return;
    for (const std::string& bytes : payloads) {
      CellRecord record;
      if (!decodeCellRecord(bytes, record).ok()) continue;
      if (record.cellIndex < 0 || record.cellIndex >= n) continue;
      result.cellRecords.emplace(record.cellIndex, std::move(record));
    }
  };

  auto firstMissing = [&](int begin, int end) {
    for (int i = begin; i < end; ++i) {
      if (result.cellRecords.find(i) == result.cellRecords.end()) return i;
    }
    return end;
  };

  Status fatal;
  bool draining = false;
  while ((!queue.empty() || !running.empty()) && fatal.ok()) {
    const Clock::time_point now = Clock::now();

    if (!draining && interruptRequested()) {
      // Graceful drain: drop queued work, ask live workers to drain
      // (they inherit the same handlers and journal what they finished),
      // and keep reaping until everyone is gone. Nothing is requeued.
      draining = true;
      result.interrupted = true;
      log("interrupt received; draining " + std::to_string(running.size()) +
          " worker(s), dropping " + std::to_string(queue.size()) +
          " queued range(s)");
      queue.clear();
      for (const RunningWorker& w : running) ::kill(w.pid, SIGTERM);
      if (traceEnabled()) {
        TraceRecorder::instance().instant("supervisor-drain");
      }
    }

    // Launch eligible tasks into free slots.
    while (!draining && static_cast<int>(running.size()) < jobs &&
           !queue.empty()) {
      auto it = std::find_if(queue.begin(), queue.end(), [&](const RangeTask& t) {
        return t.eligible <= now;
      });
      if (it == queue.end()) break;
      RunningWorker w;
      w.task = *it;
      queue.erase(it);
      w.journalPath = config.workDir + "/w_" + rangeTag(w.task) + ".jrnl";
      w.logPath = config.workDir + "/w_" + rangeTag(w.task) + ".log";
      std::string spanPath;
      if (config.collectTraceSpans) {
        spanPath = config.workDir + "/w_" + rangeTag(w.task) + ".spans";
        if (std::find(spanPaths.begin(), spanPaths.end(), spanPath) ==
            spanPaths.end()) {
          spanPaths.push_back(spanPath);
        }
        w.spawnNs = traceNowNs();
      }
      Status spawnError;
      w.pid = spawnWorker(config, w.task, w.journalPath, w.logPath,
                          spanPath, spawnError);
      if (w.pid < 0) {
        fatal = spawnError;
        break;
      }
      if (config.workerTimeoutMs > 0.0) {
        w.deadline = now + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double, std::milli>(
                                   config.workerTimeoutMs));
      }
      log("launched pid " + std::to_string(w.pid) + " for cells [" +
          std::to_string(w.task.begin) + ", " + std::to_string(w.task.end) +
          ")" + (w.task.degradeOnly ? " fallback-only" : ""));
      running.push_back(std::move(w));
    }

    // Watchdog: SIGKILL workers past their wall-clock deadline.
    for (RunningWorker& w : running) {
      if (!w.killedByWatchdog && Clock::now() > w.deadline) {
        log("watchdog: pid " + std::to_string(w.pid) + " exceeded " +
            std::to_string(config.workerTimeoutMs) + " ms, SIGKILL");
        ::kill(w.pid, SIGKILL);
        w.killedByWatchdog = true;
        ++result.counters.hungWorkers;
        if (traceEnabled()) {
          TraceRecorder::instance().instant("watchdog-kill " +
                                            rangeLabel(w.task));
        }
      }
    }

    // Reap.
    bool reaped = false;
    for (std::size_t i = 0; i < running.size();) {
      RunningWorker& w = running[i];
      int wstatus = 0;
      const pid_t r = ::waitpid(w.pid, &wstatus, WNOHANG);
      if (r == 0) {
        ++i;
        continue;
      }
      reaped = true;
      RunningWorker worker = std::move(w);
      running.erase(running.begin() + static_cast<std::ptrdiff_t>(i));
      const RangeTask& task = worker.task;

      // The worker's lifetime as the supervisor saw it (fork to reap),
      // alongside whatever spans the worker recorded itself.
      if (traceEnabled()) {
        TraceRecorder::instance().record("worker " + rangeLabel(task),
                                         worker.spawnNs, traceNowNs());
      }

      const bool exited = WIFEXITED(wstatus);
      const int exitCode = exited ? WEXITSTATUS(wstatus) : -1;
      const bool cleanExit = exited && exitCode == 0;

      // A cleanly-exited worker sealed its journal with a SHA-256
      // sidecar (the plan executor writes it after the last append).
      // Refuse to merge a range whose on-disk bytes do not match the
      // seal — bit rot or a concurrent writer, either way not the
      // worker's output — and re-run it from scratch instead.
      bool journalTrusted = true;
      if (cleanExit && !draining) {
        const Status sealed = verifyHashSidecar(worker.journalPath);
        if (!sealed.ok()) {
          journalTrusted = false;
          ++result.counters.corruptJournals;
          log("pid " + std::to_string(worker.pid) + " range " +
              rangeLabel(task) +
              ": journal failed its integrity seal (" + sealed.message() +
              "); discarding and re-running");
          sysio::unlink(worker.journalPath.c_str());
          sysio::unlink(sidecarPathFor(worker.journalPath).c_str());
          if (traceEnabled()) {
            TraceRecorder::instance().instant("journal-seal-reject " +
                                              rangeLabel(task));
          }
        }
      }

      if (journalTrusted) harvest(worker.journalPath);
      const int missing = firstMissing(task.begin, task.end);
      const bool completed =
          cleanExit && journalTrusted && missing == task.end;

      if (completed) {
        log("pid " + std::to_string(worker.pid) + " completed [" +
            std::to_string(task.begin) + ", " + std::to_string(task.end) +
            ") with exit " + std::to_string(exitCode));
        continue;
      }

      if (draining) {
        // Whatever this worker journaled before the SIGTERM is harvested
        // above; the rest of its range stays unfinished by design.
        log("pid " + std::to_string(worker.pid) + " drained [" +
            std::to_string(task.begin) + ", " + std::to_string(task.end) +
            ") up to cell " + std::to_string(missing));
        continue;
      }

      // A fatal or journal error (exit 3) poisons every future worker
      // identically; retrying or bisecting it would only spin. Within
      // that class, ENOSPC gets its own treatment (section 18): a full
      // filer fails every future worker AND every retry, so the run
      // ABORTS — stop spawning, terminate the rest, keep everything
      // already journaled, and name the cause so the manifest reports
      // why the run is partial instead of grinding the backoff/bisect
      // ladder against a disk that cannot take another byte.
      if (exited && exitCode == 3) {
        const std::string tail = logTail(worker.logPath);
        const bool enospc =
            tail.find("No space left on device") != std::string::npos ||
            tail.find("ENOSPC") != std::string::npos ||
            tail.find("Disk quota exceeded") != std::string::npos;
        if (enospc) {
          result.abortCause =
              "worker for cells [" + std::to_string(task.begin) + ", " +
              std::to_string(task.end) +
              ") hit ENOSPC; aborting instead of retrying: " + tail;
          log("ENOSPC abort: " + result.abortCause);
          if (traceEnabled()) {
            TraceRecorder::instance().instant("enospc-abort " +
                                              rangeLabel(task));
          }
          queue.clear();
          for (const RunningWorker& rw : running) ::kill(rw.pid, SIGTERM);
          // Not `fatal`: the harvested records are good and ship as a
          // partial result. The loop drains the remaining workers.
          draining = true;
          continue;
        }
        fatal = Status(StatusCode::kInternal,
                       "worker for cells [" + std::to_string(task.begin) +
                           ", " + std::to_string(task.end) +
                           ") exited 3 (fatal or journal error): " + tail);
        break;
      }

      ++result.counters.crashedWorkers;
      // A worker died abnormally somewhere in its range: its atomic
      // writes may have left `.tmp.<pid>` debris in the work dir. The
      // pid is reaped, so the sweep can prove the files orphaned.
      result.counters.staleTempsRemoved += sweepStaleTempFiles(config.workDir);
      const std::string why =
          !journalTrusted
              ? "wrote a journal failing its integrity seal"
              : worker.killedByWatchdog
                    ? "hung (watchdog SIGKILL)"
                    : exited
                          ? "exited " + std::to_string(exitCode)
                          : "killed by signal " +
                                std::to_string(WTERMSIG(wstatus));

      if (task.degradeOnly) {
        // Even the fallback-only worker died. After the last retry the
        // cell stays unharvested: the caller hole-fills every instance
        // of it (it owns the plan; we cannot count instances).
        if (task.attempts >= config.maxRetries) {
          log("fallback-only worker for cell " + std::to_string(task.begin) +
              " " + why + "; leaving the hole for the caller to fill");
          continue;
        }
        RangeTask retry = task;
        ++retry.attempts;
        ++result.counters.retriedRanges;
        retry.eligible = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                            std::chrono::duration<double, std::milli>(
                                                backoffMs(config, retry.attempts)));
        queue.push_back(retry);
        continue;
      }

      if (missing == task.end) {
        // Every cell journaled despite the abnormal exit (e.g. crash
        // after the last append): the work is intact, move on.
        log("pid " + std::to_string(worker.pid) + " " + why +
            " after journaling its whole range; keeping the records");
        continue;
      }

      if (missing > task.begin) {
        // Progress was made; only the remainder goes back. Attempts
        // reset — this is a different (smaller) range now.
        log("pid " + std::to_string(worker.pid) + " " + why + " at cell " +
            std::to_string(missing) + "; requeueing [" +
            std::to_string(missing) + ", " + std::to_string(task.end) + ")");
        ++result.counters.retriedRanges;
        queue.push_back(RangeTask{missing, task.end, 0, false, Clock::now()});
        continue;
      }

      if (task.attempts < config.maxRetries) {
        RangeTask retry = task;
        ++retry.attempts;
        ++result.counters.retriedRanges;
        const double delay = backoffMs(config, retry.attempts);
        retry.eligible = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                            std::chrono::duration<double, std::milli>(delay));
        log("pid " + std::to_string(worker.pid) + " " + why +
            " with no progress; retry " + std::to_string(retry.attempts) +
            "/" + std::to_string(config.maxRetries) + " in " +
            std::to_string(static_cast<int>(delay)) + " ms");
        if (traceEnabled()) {
          TraceRecorder::instance().instant("retry " + rangeLabel(task));
        }
        queue.push_back(retry);
        continue;
      }

      if (task.end - task.begin > 1) {
        // Retries exhausted on a multi-cell range: bisect toward the
        // culprit instead of abandoning every cell in it.
        const int mid = task.begin + (task.end - task.begin) / 2;
        log("bisecting [" + std::to_string(task.begin) + ", " +
            std::to_string(task.end) + ") -> [" + std::to_string(task.begin) +
            ", " + std::to_string(mid) + ") + [" + std::to_string(mid) +
            ", " + std::to_string(task.end) + ")");
        ++result.counters.bisectedRanges;
        if (traceEnabled()) {
          TraceRecorder::instance().instant("bisect " + rangeLabel(task));
        }
        queue.push_back(RangeTask{task.begin, mid, 0, false, Clock::now()});
        queue.push_back(RangeTask{mid, task.end, 0, false, Clock::now()});
        continue;
      }

      // Single-cell culprit: degrade it via the fallback ladder in a
      // fresh worker instead of poisoning the batch.
      log("isolated culprit cell " + std::to_string(task.begin) + " (" +
          why + "); degrading via fallback-only worker");
      ++result.counters.crashedShapes;
      result.isolatedShapes.push_back(task.begin);
      if (traceEnabled()) {
        TraceRecorder::instance().instant("isolate shape " +
                                          std::to_string(task.begin));
      }
      queue.push_back(RangeTask{task.begin, task.end, 0, true, Clock::now()});
    }

    if (!reaped && fatal.ok()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  // Fatal path: reap whatever is still running so no zombies outlive us.
  for (RunningWorker& w : running) {
    ::kill(w.pid, SIGKILL);
    int wstatus = 0;
    ::waitpid(w.pid, &wstatus, 0);
  }

  // Final hygiene pass: every worker pid is reaped by now, so any
  // `.tmp.<pid>` left by a killed or crashed worker is provably orphaned.
  result.counters.staleTempsRemoved += sweepStaleTempFiles(config.workDir);

  if (fatal.ok()) {
    std::sort(result.isolatedShapes.begin(), result.isolatedShapes.end());
  }
  if (config.collectTraceSpans) {
    // Best effort: a worker that crashed before flushing its span file
    // contributes nothing; retries reuse one file, last writer wins.
    for (const std::string& path : spanPaths) {
      readSpanFile(path, result.workerSpans);
    }
  }
  result.status = fatal;
  return result;
}

}  // namespace mbf
