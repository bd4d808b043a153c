// Multi-process cell-cache contention drill: N simultaneous mbf_cli
// --hier processes sharing ONE cell-cache directory (DESIGN.md section
// 19). Run as:
//
//   mbf_cache_contention <path-to-mbf_cli>
//
// Phases:
//   1. Cold stampede: six processes start together on an empty shared
//      cache, so every process misses every cell, fractures it, and
//      races the others' publication renames. Every process must exit
//      0 with zero rejected entries (an entry is published by one
//      rename, so no reader ever sees half of one), every .shots must be
//      byte-identical to a cache-less reference run, and every manifest
//      must pass `mbf_cli --verify`. The cache must then hold one
//      `.cell` per unique cell and no `.sha256` file.
//   2. Warm stampede: six more simultaneous processes on the now-full
//      cache — all hits, still zero rejections, still byte-identical.
//   3. Quota stampede: six simultaneous processes under
//      --cell-cache-quota-mb=1. The sweep runs concurrently with other
//      processes' loads; the liveness protocol must keep every run
//      correct (exit 0, byte-identical, zero rejections) even when
//      entries are evicted between runs.
//
// After each phase the shared directory must hold no temp debris
// (*.tmp.*) and no leaked liveness locks (.mbf-live.*.lck) — every
// clean exit releases its lock by unlinking it.
//
// Standalone driver (no gtest), same pattern as mbf_hier_drill: it
// exercises real process boundaries — fork/exec, not threads — because
// the protocol under test is cross-process by definition.
#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "io/gdsii.h"

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%-62s %s\n", what.c_str(), ok ? "ok" : "FAIL");
  if (!ok) ++g_failures;
}

std::string readBytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
}

/// Runs mbf_cli to completion in the foreground (for the reference run
/// and --verify); returns the exit code, -2 on signal death.
int runCli(const std::string& cli, const std::vector<std::string>& args) {
  std::string cmd = "'" + cli + "'";
  for (const std::string& a : args) cmd += " '" + a + "'";
  cmd += " > /dev/null 2>&1";
  const int raw = std::system(cmd.c_str());
  if (raw == -1) return -1;
  if (!WIFEXITED(raw)) return -2;
  return WEXITSTATUS(raw);
}

/// fork+exec so all N processes genuinely run at once; stdout/stderr go
/// to a per-process log for post-mortems.
pid_t spawnCli(const std::string& cli, const std::vector<std::string>& args,
               const std::string& logPath) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  const int fd = ::open(logPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd >= 0) {
    ::dup2(fd, 1);
    ::dup2(fd, 2);
    ::close(fd);
  }
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(cli.c_str()));
  for (const std::string& a : args) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);
  ::execv(cli.c_str(), argv.data());
  std::_Exit(127);
}

mbf::GdsPolygon poly(std::initializer_list<mbf::Point> pts) {
  mbf::GdsPolygon p;
  p.polygon = mbf::Polygon(pts);
  return p;
}

/// Twelve unique cells (distinct staircase polygons, so twelve distinct
/// cache keys), each instantiated through a 3x2 AREF: enough per-cell
/// work that six processes genuinely overlap inside the miss/fracture/
/// store window instead of finishing before the next one starts.
mbf::GdsLibrary contentionLib() {
  mbf::GdsLibrary lib;
  mbf::GdsStructure top{"TOP", {}, {}, {}};
  for (int i = 0; i < 12; ++i) {
    mbf::GdsStructure cell;
    cell.name = "CELL" + std::to_string(i);
    const int w = 60 + 10 * i;
    const int step = 20 + 2 * i;
    cell.polygons.push_back(poly({{0, 0},
                                  {w, 0},
                                  {w, step},
                                  {step, step},
                                  {step, w},
                                  {0, w}}));
    lib.structures.push_back(std::move(cell));
    mbf::GdsAref a;
    a.structName = "CELL" + std::to_string(i);
    a.origin = {0, i * 100000};
    a.columns = 3;
    a.rows = 2;
    a.columnPitch = {400, 0};
    a.rowPitch = {0, 400};
    top.arefs.push_back(a);
  }
  lib.structures.push_back(std::move(top));
  return lib;
}

bool writeGdsFile(const std::string& path, const mbf::GdsLibrary& lib) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) return false;
  mbf::writeGds(os, lib);
  return static_cast<bool>(os);
}

/// Any *.tmp.* file or .mbf-live.*.lck left in the cache directory
/// after every process exited cleanly is a protocol leak.
int countDebris(const std::string& dir, std::string* names) {
  int n = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    const bool temp = name.find(".tmp.") != std::string::npos;
    const bool lock = name.rfind(".mbf-live.", 0) == 0;
    if (temp || lock) {
      ++n;
      if (names != nullptr) *names += " " + name;
    }
  }
  return n;
}

int countWithSuffix(const std::string& dir, const std::string& suffix) {
  int n = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      ++n;
    }
  }
  return n;
}

/// Launches `n` identical --hier runs at once against `cache`, waits
/// for all, and applies the shared-phase checks. `tag` names output
/// files and check lines; `extra` appends per-phase flags.
void stampede(const std::string& cli, const std::string& dir,
              const std::string& input, const std::string& cache,
              const std::string& refShots, const std::string& tag, int n,
              const std::vector<std::string>& extra) {
  std::vector<pid_t> pids;
  for (int i = 0; i < n; ++i) {
    const std::string id = tag + std::to_string(i);
    std::vector<std::string> args = {input,
                                     dir + "/" + id + ".shots",
                                     "--hier",
                                     "--top-cell=TOP",
                                     "--cell-cache=" + cache,
                                     "--metrics-json=" + dir + "/" + id +
                                         ".json"};
    args.insert(args.end(), extra.begin(), extra.end());
    pids.push_back(spawnCli(cli, args, dir + "/" + id + ".log"));
  }
  bool allSpawned = true;
  bool allExitZero = true;
  for (int i = 0; i < n; ++i) {
    if (pids[static_cast<size_t>(i)] < 0) {
      allSpawned = false;
      continue;
    }
    int status = 0;
    if (::waitpid(pids[static_cast<size_t>(i)], &status, 0) < 0 ||
        !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      allExitZero = false;
      std::fprintf(stderr, "--- %s%d log ---\n%s\n", tag.c_str(), i,
                   readBytes(dir + "/" + tag + std::to_string(i) + ".log")
                       .c_str());
    }
  }
  check(allSpawned, tag + ": all " + std::to_string(n) + " workers spawned");
  check(allExitZero, tag + ": all processes exit 0");

  bool allIdentical = true;
  bool noneRejected = true;
  bool allVerify = true;
  const std::string ref = readBytes(refShots);
  for (int i = 0; i < n; ++i) {
    const std::string id = tag + std::to_string(i);
    if (readBytes(dir + "/" + id + ".shots") != ref) allIdentical = false;
    const std::string manifest = readBytes(dir + "/" + id + ".json");
    if (manifest.find("\"cache_rejected\": 0") == std::string::npos) {
      noneRejected = false;
    }
    if (runCli(cli, {"--verify", dir + "/" + id + ".json"}) != 0) {
      allVerify = false;
    }
  }
  check(!ref.empty() && allIdentical,
        tag + ": every .shots byte-identical to reference");
  check(noneRejected, tag + ": zero rejected entries in every manifest");
  check(allVerify, tag + ": every run passes --verify");

  std::string debris;
  check(countDebris(cache, &debris) == 0,
        tag + ": no temp/lock debris in shared cache" + debris);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: mbf_cache_contention <path-to-mbf_cli>\n";
    return 2;
  }
  const std::string cli = argv[1];
  const std::string dir = "cache_contention_tmp";
  std::system(("rm -rf '" + dir + "' && mkdir -p '" + dir + "'").c_str());

  const std::string input = dir + "/layout.gds";
  if (!writeGdsFile(input, contentionLib())) {
    std::cerr << "cannot write " << input << "\n";
    return 2;
  }
  const std::string cache = dir + "/shared_cache";

  // Cache-less reference: the byte-identity yardstick for every phase.
  const std::string refShots = dir + "/ref.shots";
  check(runCli(cli, {input, refShots, "--hier", "--top-cell=TOP"}) == 0,
        "reference --hier run (no cache) exits 0");

  // --- Phase 1: cold stampede -------------------------------------------
  stampede(cli, dir, input, cache, refShots, "cold", 6, {});
  check(countWithSuffix(cache, ".cell") == 12,
        "cold: cache holds one .cell per unique cell");
  check(countWithSuffix(cache, ".sha256") == 0,
        "cold: every entry is one self-verifying file, no sidecar");

  // --- Phase 2: warm stampede -------------------------------------------
  stampede(cli, dir, input, cache, refShots, "warm", 6, {});
  check(readBytes(dir + "/warm0.json").find("\"cache_misses\": 0") !=
            std::string::npos,
        "warm: a post-phase-1 run misses nothing");

  // --- Phase 3: quota stampede ------------------------------------------
  // A 1 MB quota far exceeds these entries, so nothing is actually
  // evicted mid-phase — what the phase proves is that six concurrent
  // QUOTA SWEEPS (each process runs one after each store) racing six
  // concurrent loads never break a run. The eviction/liveness unit
  // tests cover the skip-live policy itself.
  std::system(("rm -rf '" + cache + "'").c_str());
  stampede(cli, dir, input, cache, refShots, "quota", 6,
           {"--cell-cache-quota-mb=1"});

  if (g_failures > 0) {
    std::fprintf(stderr, "%d cache contention check(s) failed\n",
                 g_failures);
    return 1;
  }
  std::printf("all cache contention drills passed\n");
  return 0;
}
