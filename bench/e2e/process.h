// Child-process runner of the benchmark: fork + exec, then wait4 for the
// exit status and the rusage of the whole process tree the child reaped
// (its --isolate workers included).
#pragma once

#include <string>
#include <vector>

namespace mbf::e2e {

struct ProcessResult {
  bool started = false;  ///< fork/exec succeeded
  int exitCode = -1;     ///< -1 when killed by a signal
  int signal = 0;
  double wallSeconds = 0.0;
  double cpuSeconds = 0.0;  ///< user + sys of the child and its children
  double maxRssMb = 0.0;    ///< largest ru_maxrss of any of them, 1e6 B
};

/// Runs `argv` (argv[0] is a path) with stdout and stderr appended to
/// `logPath`, and waits for it to end.
ProcessResult runProcess(const std::vector<std::string>& argv,
                         const std::string& logPath);

}  // namespace mbf::e2e
