// I/O chaos drills (DESIGN.md section 18): first-failure sweeps against
// the real mbf_cli binary through the injectable syscall shim. Run as:
//
//   mbf_iofault_drill <path-to-mbf_cli>
//
// Drills:
//   1. First-failure sweep: a clean journaled reference run counts its
//      persistent-artifact I/O ops via MBF_SYSIO_STATS; the run is then
//      replayed once per op index with a sticky ENOSPC injected there
//      (MBF_SYSIO_FAULT=any@i:enospc!). Every outcome must be a
//      documented exit code — never a signal death — with no stale
//      `.tmp.<pid>` debris, and any run that exits 0/1 must produce a
//      .shots byte-identical to the reference. Whenever --verify accepts
//      a faulted run's manifest, the shots it vouches for ARE the
//      reference bytes: the gate never passes corruption.
//   2. The same sweep against `--isolate --jobs=4`. Faults reach only
//      the parent: the forked workers stream their outcomes over pipes
//      and make no shimmed I/O op.
//   3. Degrade-don't-die, pinpointed: a one-shot EIO on a mid-batch
//      journal append completes unjournaled (exit 2, shots intact); a
//      one-shot ENOSPC on the run's last write fails only the metrics
//      sidecar (exit 2, shots intact); under `--isolate --journal` an
//      ENOSPC on the parent's journal appends completes unjournaled too
//      (exit 2, shots intact), as in process.
//   4. Recovery hygiene: a sticky fsync failure under --fsync=each is a
//      clean documented failure, and a disarmed --resume afterwards
//      converges to the reference bytes while sweeping planted
//      dead-writer temp files.
//
// By default only a spread subset of sweep indices runs (smoke);
// MBF_IOFAULT_FULL=1 replays every index.
//
// Standalone driver (no gtest) because it exercises the CLI process
// boundary — environment inheritance, fork/exec, exit codes — not
// library internals.
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "benchgen/ilt_synth.h"
#include "drill_util.h"
#include "io/poly_io.h"

namespace {

using drill::check;
using drill::readBytes;
using drill::runCli;

bool exists(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0;
}

/// Recursively counts `*.tmp.<digits>` files under `dir` (the debris the
/// atomic-write protocol must never leak).
int countTempDebris(const std::string& dir) {
  const std::string cmd =
      "find '" + dir + "' -name '*.tmp.*' 2>/dev/null | grep -c ." ;
  FILE* p = ::popen(cmd.c_str(), "r");
  if (p == nullptr) return -1;
  int n = 0;
  if (std::fscanf(p, "%d", &n) != 1) n = 0;
  ::pclose(p);
  return n;
}

/// Sums one column ("total", "write", ...) over every per-process line
/// MBF_SYSIO_STATS appended.
long statsSum(const std::string& statsPath, const std::string& column) {
  std::ifstream is(statsPath);
  long sum = 0;
  std::string line;
  while (std::getline(is, line)) {
    std::istringstream ls(line);
    std::string word;
    while (ls >> word) {
      if (word == column) {
        long v = 0;
        if (ls >> v) sum += v;
        break;
      }
    }
  }
  return sum;
}

/// The sweep's index set: every index when full, a spread subset when
/// smoke (always covering the first few ops — header writes, directory
/// creation — and the last — the final rename/fsync of the manifest).
std::vector<long> sweepIndices(long total, bool full) {
  std::vector<long> out;
  if (full) {
    for (long i = 1; i <= total; ++i) out.push_back(i);
    return out;
  }
  for (long i = 1; i <= std::min<long>(total, 6); ++i) out.push_back(i);
  for (long i = 8; i < total; i += std::max<long>(2, total / 8)) {
    out.push_back(i);
  }
  if (total > 6) out.push_back(total);
  return out;
}

bool isDocumentedExit(int code) {
  return code == 0 || code == 1 || code == 2 || code == 3 || code == 4 ||
         code == 5 || code == 6;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: mbf_iofault_drill <path-to-mbf_cli>\n";
    return 2;
  }
  const std::string cli = argv[1];
  const bool full = std::getenv("MBF_IOFAULT_FULL") != nullptr &&
                    std::string(std::getenv("MBF_IOFAULT_FULL")) == "1";
  const std::string dir = "iofault_drill_tmp";
  std::system(("rm -rf '" + dir + "' && mkdir -p '" + dir + "'").c_str());

  // A small layout: the drill's cost is runs-times-ops, so the per-run
  // fracture must stay cheap while still journaling several records.
  const int numShapes = 6;
  std::vector<mbf::Polygon> rings;
  for (int i = 0; i < numShapes; ++i) {
    mbf::IltSynthConfig cfg;
    cfg.seed = 7000 + static_cast<unsigned>(i);
    mbf::Polygon ring = mbf::makeIltShape(cfg);
    ring.translate({i * 4000, 0});
    rings.push_back(std::move(ring));
  }
  const std::string input = dir + "/layout.poly";
  if (!mbf::savePolygons(input, rings)) {
    std::cerr << "cannot write " << input << "\n";
    return 2;
  }
  const std::vector<std::string> baseFlags = {"--nmax=3000", "--threads=2"};

  // --- Reference run: learn the op universe --------------------------
  const std::string refShots = dir + "/ref.shots";
  const std::string refStats = dir + "/ref.stats";
  long totalOps = 0;
  long totalWrites = 0;
  {
    std::vector<std::string> args = {input, refShots,
                                     "--journal=" + dir + "/ref.jrnl",
                                     "--metrics-json=" + dir + "/ref.json"};
    args.insert(args.end(), baseFlags.begin(), baseFlags.end());
    const int exit = runCli(cli, args, "/dev/null", dir + "/ref.err",
                            "MBF_SYSIO_STATS=" + refStats);
    check(exit == 0, "reference run exits 0");
    totalOps = statsSum(refStats, "total");
    totalWrites = statsSum(refStats, "write");
    check(totalOps > 10, "reference run counted its I/O ops (" +
                             std::to_string(totalOps) + ")");
    check(runCli(cli, {"--verify", dir + "/ref.json"}, "/dev/null",
                 dir + "/refverify.err") == 0,
          "clean reference run passes --verify");
  }
  const std::string refBytes = readBytes(refShots);
  check(!refBytes.empty(), "reference run produced output");

  // --- Drill 1: serial first-failure sweep (sticky ENOSPC) -----------
  {
    const std::vector<long> indices = sweepIndices(totalOps, full);
    std::set<int> exitsSeen;
    bool allDocumented = true, goodRunsIdentical = true, noDebris = true,
         verifyNeverLied = true;
    for (long i : indices) {
      const std::string tag = dir + "/s" + std::to_string(i);
      std::vector<std::string> args = {input, tag + ".shots",
                                       "--journal=" + tag + ".jrnl",
                                       "--metrics-json=" + tag + ".json"};
      args.insert(args.end(), baseFlags.begin(), baseFlags.end());
      const int exit =
          runCli(cli, args, "/dev/null", tag + ".err",
                 "MBF_SYSIO_FAULT=any@" + std::to_string(i) + ":enospc!");
      exitsSeen.insert(exit);
      if (!isDocumentedExit(exit)) {
        allDocumented = false;
        std::cerr << "  index " << i << ": undocumented exit " << exit << "\n";
      }
      if ((exit == 0 || exit == 1) && readBytes(tag + ".shots") != refBytes) {
        goodRunsIdentical = false;
        std::cerr << "  index " << i << ": exit " << exit
                  << " but shots differ from reference\n";
      }
      if (countTempDebris(dir) != 0) {
        // A sticky any-op fault also blocks the failure path's own
        // unlink, so debris here is not itself a defect — but the
        // writer is dead, so a disarmed --resume MUST sweep it.
        std::vector<std::string> resumeArgs = {input, tag + ".shots",
                                               "--journal=" + tag + ".jrnl",
                                               "--resume"};
        resumeArgs.insert(resumeArgs.end(), baseFlags.begin(),
                          baseFlags.end());
        (void)runCli(cli, resumeArgs, "/dev/null", tag + ".sweep.err");
        if (countTempDebris(dir) != 0) {
          noDebris = false;
          std::cerr << "  index " << i
                    << ": stale temp debris survived a disarmed resume\n";
          std::system(("find '" + dir + "' -name '*.tmp.*' -delete").c_str());
        }
      }
      // Whenever the gate accepts the manifest of a faulted run, the
      // shots it vouches for must be the reference bytes: --verify
      // never green-lights an output ENOSPC mangled.
      if (exists(tag + ".json") && exists(tag + ".json.sha256")) {
        const int v = runCli(cli, {"--verify", tag + ".json"}, "/dev/null",
                             tag + ".verify.err");
        if (v == 0 && readBytes(tag + ".shots") != refBytes) {
          verifyNeverLied = false;
          std::cerr << "  index " << i << ": --verify passed corruption\n";
        }
      }
    }
    check(allDocumented, "sweep: every outcome is a documented exit code");
    check(goodRunsIdentical, "sweep: exit 0/1 runs are byte-identical");
    check(noDebris, "sweep: no stale temp files survive any fault");
    check(verifyNeverLied, "sweep: --verify never passes corruption");
    check(exitsSeen.count(3) == 1,
          "sweep: an early fault is a clean I/O failure (exit 3)");
    std::printf("  (%zu indices of %ld swept%s)\n", indices.size(), totalOps,
                full ? ", full" : ", smoke");
  }

  // --- Drill 2: the sweep under --isolate ----------------------------
  {
    // Sweep a fixed spread of indices; each fires in the parent, the
    // only process of the run that makes shimmed I/O ops.
    const std::vector<long> indices =
        full ? std::vector<long>{1, 2, 3, 4, 5, 6, 8, 10, 13, 16, 20}
             : std::vector<long>{1, 2, 4, 7, 11};
    bool allDocumented = true, goodRunsIdentical = true, noDebris = true;
    for (long i : indices) {
      const std::string tag = dir + "/iso" + std::to_string(i);
      std::vector<std::string> args = {input, tag + ".shots", "--isolate",
                                       "--jobs=4"};
      args.insert(args.end(), baseFlags.begin(), baseFlags.end());
      const int exit =
          runCli(cli, args, "/dev/null", tag + ".err",
                 "MBF_SYSIO_FAULT=any@" + std::to_string(i) + ":enospc!");
      if (!isDocumentedExit(exit)) {
        allDocumented = false;
        std::cerr << "  iso index " << i << ": undocumented exit " << exit
                  << "\n";
      }
      if (exit == 0 && readBytes(tag + ".shots") != refBytes) {
        goodRunsIdentical = false;
        std::cerr << "  iso index " << i << ": exit 0, shots differ\n";
      }
      if (countTempDebris(tag + ".shots.workers") > 0) {
        noDebris = false;
        std::cerr << "  iso index " << i << ": temp debris among the "
                  << "worker logs\n";
      }
    }
    check(allDocumented, "isolate sweep: documented exit codes only");
    check(goodRunsIdentical, "isolate sweep: exit-0 runs byte-identical");
    check(noDebris, "isolate sweep: no temp debris in the work dir");
  }

  // --- Drill 3a: journal append EIO degrades, run completes ----------
  {
    // The journal header is the run's first write; appends follow. Scan
    // the first few write indices: at least one must land on a
    // mid-batch append and take the documented degrade path — exit 2,
    // "unjournaled" diagnostic, shots byte-identical.
    bool sawDowngrade = false;
    for (long w = 2; w <= 8 && !sawDowngrade; ++w) {
      const std::string tag = dir + "/jd" + std::to_string(w);
      std::vector<std::string> args = {input, tag + ".shots",
                                       "--journal=" + tag + ".jrnl"};
      args.insert(args.end(), baseFlags.begin(), baseFlags.end());
      const int exit =
          runCli(cli, args, "/dev/null", tag + ".err",
                 "MBF_SYSIO_FAULT=write@" + std::to_string(w) + ":eio");
      const std::string err = readBytes(tag + ".err");
      if (exit == 2 && err.find("unjournaled") != std::string::npos) {
        sawDowngrade = readBytes(tag + ".shots") == refBytes;
      }
    }
    check(sawDowngrade,
          "journal append EIO: completes unjournaled, exit 2, shots intact");
  }

  // --- Drill 3b: last-write fault fails only the aux artifact --------
  {
    const std::string tag = dir + "/aux";
    std::vector<std::string> args = {input, tag + ".shots",
                                     "--journal=" + tag + ".jrnl",
                                     "--metrics-json=" + tag + ".json"};
    args.insert(args.end(), baseFlags.begin(), baseFlags.end());
    const int exit =
        runCli(cli, args, "/dev/null", tag + ".err",
               "MBF_SYSIO_FAULT=write@" + std::to_string(totalWrites) +
                   ":enospc");
    check(exit == 2, "metrics-sidecar ENOSPC: exit 2 (artifact named)");
    check(readBytes(tag + ".shots") == refBytes,
          "metrics-sidecar ENOSPC: .shots intact and identical");
  }

  // --- Drill 3c: a supervised run's journal ENOSPC degrades ---------
  {
    // The parent alone journals: write #1 is the journal header, #2 its
    // first append. After a failed append the journal takes no more, so
    // this one-shot fault is a full filer as far as the journal goes,
    // while the .shots write that follows still lands.
    const std::string tag = dir + "/isojd";
    std::vector<std::string> args = {input, tag + ".shots", "--isolate",
                                     "--jobs=2", "--journal=" + tag + ".jrnl"};
    args.insert(args.end(), baseFlags.begin(), baseFlags.end());
    const int exit = runCli(cli, args, "/dev/null", tag + ".err",
                            "MBF_SYSIO_FAULT=write@2:enospc");
    check(exit == 2 &&
              readBytes(tag + ".err").find("unjournaled") != std::string::npos,
          "isolate journal ENOSPC: completes unjournaled, exit 2");
    check(readBytes(tag + ".shots") == refBytes,
          "isolate journal ENOSPC: .shots intact and identical");
  }

  // --- Drill 4: sticky fsync EIO, then a disarmed resume -------------
  {
    const std::string tag = dir + "/fs";
    std::vector<std::string> args = {input, tag + ".shots",
                                     "--journal=" + tag + ".jrnl",
                                     "--fsync=each"};
    args.insert(args.end(), baseFlags.begin(), baseFlags.end());
    const int exit =
        runCli(cli, args, "/dev/null", tag + ".err",
               "MBF_SYSIO_FAULT=fsync@1:eio!");
    check(isDocumentedExit(exit) && exit != 0,
          "sticky fsync EIO under --fsync=each fails cleanly");

    // Plant dead-writer debris the resume must sweep. A reaped child's
    // pid provably no longer exists.
    const pid_t dead = ::fork();
    if (dead == 0) ::_exit(0);
    int wstatus = 0;
    ::waitpid(dead, &wstatus, 0);
    const std::string debris =
        dir + "/fs.shots.tmp." + std::to_string(dead);
    std::ofstream(debris) << "dead writer debris";

    std::vector<std::string> resumeArgs = {input, tag + ".shots",
                                           "--journal=" + tag + ".jrnl",
                                           "--resume"};
    resumeArgs.insert(resumeArgs.end(), baseFlags.begin(), baseFlags.end());
    const int resumeExit =
        runCli(cli, resumeArgs, "/dev/null", tag + ".resume.err");
    check(resumeExit == 0, "disarmed --resume completes after fsync chaos");
    check(readBytes(tag + ".shots") == refBytes,
          "resumed output is byte-identical to the reference");
    check(!exists(debris), "--resume swept the dead writer's temp file");
    const std::string resumeErr = readBytes(tag + ".resume.err");
    check(resumeErr.find("stale temp") != std::string::npos,
          "--resume reported the sweep");
  }

  return drill::finish("iofault drill");
}
