#include "process.h"

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>

namespace mbf::e2e {

ProcessResult runProcess(const std::vector<std::string>& argv,
                         const std::string& logPath) {
  ProcessResult out;
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);

  const auto start = std::chrono::steady_clock::now();
  const pid_t pid = ::fork();
  if (pid < 0) return out;
  if (pid == 0) {
    const int fd = ::open(logPath.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd >= 0) {
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
      ::close(fd);
    }
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  int status = 0;
  struct rusage usage {};
  pid_t waited = -1;
  do {
    waited = ::wait4(pid, &status, 0, &usage);
  } while (waited < 0 && errno == EINTR);
  out.wallSeconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  if (waited != pid) return out;
  out.started = !(WIFEXITED(status) && WEXITSTATUS(status) == 127);
  if (WIFEXITED(status)) {
    out.exitCode = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    out.signal = WTERMSIG(status);
  }
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  out.cpuSeconds = seconds(usage.ru_utime) + seconds(usage.ru_stime);
  out.maxRssMb = static_cast<double>(usage.ru_maxrss) * 1024.0 * 1e-6;
  return out;
}

}  // namespace mbf::e2e
