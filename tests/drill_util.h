// Helpers shared by the standalone process-level drills (crash, verify,
// hier and iofault drills, the telemetry smoke drill and the corpus
// replay). Each drill drives the real mbf_cli binary, prints one line
// per check to stdout and, when a check failed, a summary to stderr.
// Check lines are flushed as they are printed, so a log that captures
// both streams reads in order.
#pragma once

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

namespace drill {

inline int g_failures = 0;

/// Prints `what` with its verdict and counts a failure.
inline void check(bool ok, const std::string& what) {
  std::printf("%-64s %s\n", what.c_str(), ok ? "ok" : "FAIL");
  std::fflush(stdout);
  if (!ok) ++g_failures;
}

/// The whole file; empty when it cannot be read.
inline std::string readBytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
}

/// Runs `cli args...` to completion through the shell, with `env`
/// ("K=V K=V", or empty) added to its environment, stdout sent to `out`
/// and stderr to `err` (to `out` too when `err` is empty). Returns the
/// exit code, -2 when a signal ended it, -1 when no shell could start.
inline int runCli(const std::string& cli, const std::vector<std::string>& args,
                  const std::string& out = "/dev/null",
                  const std::string& err = "", const std::string& env = "") {
  std::string cmd = env.empty() ? "" : "env " + env + " ";
  cmd += "'" + cli + "'";
  for (const std::string& a : args) cmd += " '" + a + "'";
  cmd += " > '" + out + "' 2>" + (err.empty() ? "&1" : " '" + err + "'");
  const int raw = std::system(cmd.c_str());
  if (raw == -1) return -1;
  if (!WIFEXITED(raw)) return -2;
  return WEXITSTATUS(raw);
}

/// runCli with stdout and stderr captured into `*capture`.
inline int runCli(const std::string& cli, const std::vector<std::string>& args,
                  std::string* capture) {
  const std::string path =
      "drill_capture." + std::to_string(::getpid()) + ".txt";
  const int code = runCli(cli, args, path);
  *capture = readBytes(path);
  std::remove(path.c_str());
  return code;
}

/// Ends a drill named `name`: flushes the check lines, then reports on
/// stderr how many checks failed (or on stdout that all passed), and
/// returns main's exit code.
inline int finish(const std::string& name) {
  std::fflush(stdout);
  if (g_failures > 0) {
    std::fprintf(stderr, "%d %s check(s) failed\n", g_failures, name.c_str());
    return 1;
  }
  std::printf("all %s checks passed\n", name.c_str());
  return 0;
}

}  // namespace drill
