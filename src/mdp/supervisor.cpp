#include "mdp/supervisor.h"

#include <fcntl.h>
#include <poll.h>
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

#include "support/interrupt.h"
#include "support/journal.h"
#include "support/sysio.h"

namespace mbf {
namespace {

using Clock = std::chrono::steady_clock;

/// Payload tags of a worker's frames.
constexpr char kUnitFrame = 'u';
constexpr char kSpanFrame = 's';

struct RangeTask {
  int begin = 0;
  int end = 0;  ///< exclusive
  bool degradeOnly = false;
  Clock::time_point eligible = Clock::time_point::min();
};

struct RunningWorker {
  RangeTask task;
  pid_t pid = -1;
  int fd = -1;         ///< read end of its pipe; -1 once the stream ended
  std::string stream;  ///< bytes read but not yet framed
  int delivered = 0;   ///< units of the range delivered so far
  bool badFrame = false;
  Clock::time_point deadline = Clock::time_point::max();
  bool killedByWatchdog = false;
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

/// Writes one tagged frame to the pipe with raw write(2); false when the
/// parent is gone (EPIPE) or the pipe failed otherwise.
bool sendFrame(int fd, char tag, std::string_view body) {
  std::string payload;
  payload.reserve(1 + body.size());
  payload.push_back(tag);
  payload.append(body);
  std::string frame;
  appendFrame(frame, payload);
  for (std::size_t done = 0; done < frame.size();) {
    const ssize_t n = ::write(fd, frame.data() + done, frame.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      std::cerr << "supervisor pipe: " << std::strerror(errno) << "\n";
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

/// A forked worker's whole life: fill its range with stdout/stderr in
/// the range log, streaming one frame per unit, then leave through
/// _exit, so none of the parent's atexit hooks or static destructors run
/// twice. noexcept: an exception escaping the fill terminates the worker
/// (SIGABRT), a crash the supervisor retries and isolates like any
/// other.
[[noreturn]] void runWorker(const SupervisorConfig& config,
                            const RangeTask& task, int pipeFd,
                            const std::string& logPath) noexcept {
  const int logFd =
      ::open(logPath.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (logFd >= 0) {
    ::dup2(logFd, 1);
    ::dup2(logFd, 2);
    ::close(logFd);
  }
  // A dead parent surfaces as EPIPE at the next frame.
  ::signal(SIGPIPE, SIG_IGN);
  // Start as a fresh process would: an empty trace stamped with its own
  // pid.
  TraceRecorder& trace = TraceRecorder::instance();
  trace.clear();
  if (traceEnabled()) trace.enable();

  for (int unit = task.begin; unit < task.end; ++unit) {
    const std::string outcome = config.fill(unit, task.degradeOnly);
    if (outcome.empty()) break;  // drained before this unit started
    if (!sendFrame(pipeFd, kUnitFrame, outcome)) {
      std::fflush(nullptr);
      ::_exit(1);
    }
  }
  if (traceEnabled()) {
    (void)sendFrame(pipeFd, kSpanFrame, encodeTraceSpans(trace.snapshot()));
  }
  std::fflush(nullptr);
  ::_exit(0);
}

/// Forks a worker for `task` with a fresh pipe; returns its pid (-1 on
/// failure, with `error` set) and the pipe's read end in `readFd`.
pid_t spawnWorker(const SupervisorConfig& config, const RangeTask& task,
                  const std::string& logPath,
                  const std::vector<RunningWorker>& running, int& readFd,
                  Status& error) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    error = Status(StatusCode::kResourceExhausted,
                   std::string("pipe failed: ") + std::strerror(errno));
    return -1;
  }
  // Output the parent has buffered would otherwise be written again by
  // the worker, into its log.
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    error = Status(StatusCode::kResourceExhausted,
                   std::string("fork failed: ") + std::strerror(errno));
    ::close(fds[0]);
    ::close(fds[1]);
    return -1;
  }
  if (pid == 0) {
    ::close(fds[0]);
    for (const RunningWorker& w : running) {
      if (w.fd >= 0) ::close(w.fd);
    }
    runWorker(config, task, fds[1], logPath);
  }
  ::close(fds[1]);
  readFd = fds[0];
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
  // Several chunks per worker slot: small enough that a crash forfeits
  // little work, large enough that process spawn cost stays amortized.
  const int chunk = std::max(1, (n + jobs * 4 - 1) / (jobs * 4));
  std::deque<RangeTask> queue;
  for (int b = 0; b < n; b += chunk) {
    queue.push_back(RangeTask{b, std::min(n, b + chunk)});
  }
  std::vector<RunningWorker> running;
  // Abnormal exits per unit while it was its worker's first undelivered
  // one.
  std::vector<int> crashesAt(static_cast<std::size_t>(n), 0);

  auto log = [&](const std::string& line) {
    if (config.verbose) std::cerr << "supervisor: " << line << "\n";
  };

  // One frame of `w`'s stream; false ends the stream.
  auto acceptFrame = [&](RunningWorker& w, std::string_view payload) {
    if (payload.empty()) return false;
    const std::string_view body = payload.substr(1);
    if (payload.front() == kUnitFrame) {
      const int unit = w.task.begin + w.delivered;
      if (unit >= w.task.end || !config.deliver(unit, body)) return false;
      ++w.delivered;
      return true;
    }
    std::vector<TraceSpan> spans;
    if (payload.front() != kSpanFrame || !decodeTraceSpans(body, spans)) {
      return false;
    }
    for (TraceSpan& span : spans) {
      TraceRecorder::instance().addForeign(std::move(span));
    }
    return true;
  };

  // Reads what `w`'s pipe holds and delivers every whole frame. At EOF
  // the stream ends (bytes of an unfinished frame are a torn tail); at a
  // bad or undecodable frame too, and the worker is killed.
  auto readStream = [&](RunningWorker& w) {
    char buf[1 << 16];
    const ssize_t got = ::read(w.fd, buf, sizeof buf);
    if (got < 0 && (errno == EINTR || errno == EAGAIN)) return;
    bool ended = got <= 0;
    if (got > 0) {
      w.stream.append(buf, static_cast<std::size_t>(got));
      std::size_t at = 0;
      std::string_view payload;
      FrameRead frame = FrameRead::kShort;
      while ((frame = readFrame(w.stream, at, payload)) == FrameRead::kFrame &&
             acceptFrame(w, payload)) {
      }
      if (frame != FrameRead::kShort) {
        w.badFrame = true;
        ended = true;
        ::kill(w.pid, SIGKILL);
      } else {
        w.stream.erase(0, at);
      }
    }
    if (ended) {
      ::close(w.fd);
      w.fd = -1;
      w.stream.clear();
    }
  };

  Status fatal;
  bool draining = false;
  while ((!queue.empty() || !running.empty()) && fatal.ok()) {
    const Clock::time_point now = Clock::now();

    if (!draining && interruptRequested()) {
      // Graceful drain: drop queued work, ask live workers to drain
      // (they inherit the same handlers and stream what they finished),
      // and keep reading until everyone is gone. Nothing is requeued.
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
      if (traceEnabled()) w.spawnNs = traceNowNs();
      Status spawnError;
      w.pid = spawnWorker(config, w.task,
                          config.workDir + "/w_" + rangeTag(w.task) + ".log",
                          running, w.fd, spawnError);
      if (w.pid < 0) {
        fatal = spawnError;
        break;
      }
      if (config.workerTimeoutMs > 0.0) {
        w.deadline = now + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double, std::milli>(
                                   config.workerTimeoutMs));
      }
      log("launched pid " + std::to_string(w.pid) + " for units [" +
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

    // Read every live stream; the timeout paces the loop while none has
    // data (backoff, reaping).
    std::vector<pollfd> polled;
    for (const RunningWorker& w : running) {
      if (w.fd >= 0) polled.push_back({w.fd, POLLIN, 0});
    }
    if (::poll(polled.data(), polled.size(), 2) > 0) {
      for (const pollfd& p : polled) {
        if (p.revents == 0) continue;
        for (RunningWorker& w : running) {
          if (w.fd == p.fd) readStream(w);
        }
      }
    }

    // Reap workers whose stream ended.
    for (std::size_t i = 0; i < running.size();) {
      RunningWorker& w = running[i];
      int wstatus = 0;
      if (w.fd >= 0 || ::waitpid(w.pid, &wstatus, WNOHANG) == 0) {
        ++i;
        continue;
      }
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
      const int missing = task.begin + worker.delivered;

      if (exited && exitCode == 0 && missing == task.end) {
        log("pid " + std::to_string(worker.pid) + " completed [" +
            std::to_string(task.begin) + ", " + std::to_string(task.end) +
            ")");
        continue;
      }

      if (draining) {
        // What this worker delivered before the SIGTERM is kept; the
        // rest of its range stays unfinished by design.
        log("pid " + std::to_string(worker.pid) + " drained [" +
            std::to_string(task.begin) + ", " + std::to_string(task.end) +
            ") up to unit " + std::to_string(missing));
        continue;
      }

      ++result.counters.crashedWorkers;
      const std::string why =
          worker.badFrame
              ? "sent a torn or undecodable frame"
              : worker.killedByWatchdog
                    ? "hung (watchdog SIGKILL)"
                    : exited
                          ? "exited " + std::to_string(exitCode)
                          : "killed by signal " +
                                std::to_string(WTERMSIG(wstatus));

      if (missing == task.end) {
        // Every unit delivered despite the abnormal exit (e.g. a crash
        // after the last frame): the work is intact, move on.
        log("pid " + std::to_string(worker.pid) + " " + why +
            " after delivering its whole range; keeping the outcomes");
        continue;
      }

      // A worker streams each outcome as it finishes the unit, so it
      // died in `missing`, its first undelivered unit: retry the range
      // from there after the backoff. Once that unit has been the first
      // undelivered one in maxRetries + 1 abnormal exits it is the
      // culprit: re-run it fallback-only and requeue the rest. A unit
      // still dying fallback-only is left undelivered for the caller to
      // fill.
      const int crashes = ++crashesAt[static_cast<std::size_t>(missing)];
      if (crashes <= config.maxRetries) {
        const double delay = backoffMs(config, crashes);
        log("pid " + std::to_string(worker.pid) + " " + why + " at unit " +
            std::to_string(missing) + "; retry " + std::to_string(crashes) +
            "/" + std::to_string(config.maxRetries) + " of [" +
            std::to_string(missing) + ", " + std::to_string(task.end) +
            ") in " + std::to_string(static_cast<int>(delay)) + " ms");
        ++result.counters.retriedRanges;
        if (traceEnabled()) {
          TraceRecorder::instance().instant("retry " + rangeLabel(task));
        }
        queue.push_back(RangeTask{
            missing, task.end, task.degradeOnly,
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double, std::milli>(
                                   delay))});
        continue;
      }
      crashesAt[static_cast<std::size_t>(missing)] = 0;
      if (task.degradeOnly) {
        log("fallback-only worker for unit " + std::to_string(missing) +
            " " + why + "; leaving the hole for the caller to fill");
        continue;
      }
      log("isolated culprit unit " + std::to_string(missing) + " (" + why +
          "); degrading via fallback-only worker");
      ++result.counters.crashedShapes;
      result.isolatedShapes.push_back(missing);
      if (traceEnabled()) {
        TraceRecorder::instance().instant("isolate shape " +
                                          std::to_string(missing));
      }
      queue.push_back(RangeTask{missing, missing + 1, true, Clock::now()});
      if (missing + 1 < task.end) {
        queue.push_back(RangeTask{missing + 1, task.end, false, Clock::now()});
      }
    }
  }

  // Fatal path: reap whatever is still running so no zombies outlive us.
  for (RunningWorker& w : running) {
    ::kill(w.pid, SIGKILL);
    if (w.fd >= 0) ::close(w.fd);
    int wstatus = 0;
    ::waitpid(w.pid, &wstatus, 0);
  }

  if (fatal.ok()) {
    std::sort(result.isolatedShapes.begin(), result.isolatedShapes.end());
  }
  result.status = fatal;
  return result;
}

}  // namespace mbf
