// Crash drills: process-level verification of the crash-recovery layer
// (DESIGN.md section 14) against the real mbf_cli binary. Run as:
//
//   mbf_crash_drill <path-to-mbf_cli>
//
// Drills:
//   1. SIGKILL + resume: a journaled run is SIGKILLed at randomized
//      points; `--resume` completes it and the final .shots output is
//      byte-identical to an uninterrupted run, at 1, 4 and 8 threads.
//   2. Supervised crash isolation: `--isolate` with an injected kCrash
//      survives the dying workers, retries and isolates the culprit
//      shape, degrades only it (output identical to an in-process degradation
//      of the same shape), and exits with the partial-success code 5.
//   3. Watchdog: `--isolate` with an injected kHang is SIGKILLed by the
//      wall-clock watchdog and converges exactly like the crash case.
//   4. Supervised journal: `--isolate --journal=P` writes and seals P,
//      passes --verify, and a --resume from a prefix of P supervises
//      only the rest, byte-identically.
//   5. Old journals: --resume over a per-shape journal of the format
//      flat runs wrote before they ran as plans exits 3 with the
//      journal's meta-mismatch diagnostic.
//   6. Reused output paths: a second --isolate run with different
//      flags into the same output path (and work directory) matches a
//      run in a fresh directory byte for byte.
//
// Standalone driver (no gtest) because it exercises the CLI process
// boundary — fork/exec, signals, exit codes — not library internals.
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <random>
#include <string>
#include <vector>

#include "benchgen/ilt_synth.h"
#include "drill_util.h"
#include "io/atomic_file.h"
#include "io/poly_io.h"
#include "mdp/checkpoint.h"
#include "support/journal.h"

namespace {

using drill::check;
using drill::readBytes;
using drill::runCli;

/// Launches mbf_cli, SIGKILLs it after `delayMs`, reaps it. Returns true
/// when the process was actually killed mid-run (false = it finished
/// first, which is fine — the drill then just replays a full journal).
bool runAndKill(const std::string& cli, const std::vector<std::string>& args,
                int delayMs) {
  std::vector<std::string> storage = args;
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(cli.c_str()));
  for (std::string& a : storage) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t pid = fork();
  if (pid == 0) {
    const int nul = open("/dev/null", O_WRONLY);
    if (nul >= 0) {
      dup2(nul, STDOUT_FILENO);
      dup2(nul, STDERR_FILENO);
      close(nul);
    }
    execv(cli.c_str(), argv.data());
    _exit(127);
  }
  if (pid < 0) return false;
  usleep(static_cast<useconds_t>(delayMs) * 1000);
  const bool killed = kill(pid, SIGKILL) == 0;
  int wstatus = 0;
  waitpid(pid, &wstatus, 0);
  return killed && WIFSIGNALED(wstatus);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: mbf_crash_drill <path-to-mbf_cli>\n";
    return 2;
  }
  const std::string cli = argv[1];
  const std::string dir = "crash_drill_tmp";
  std::system(("rm -rf '" + dir + "' && mkdir -p '" + dir + "'").c_str());

  // A layout heavy enough that the kill points land mid-batch: spaced-out
  // ILT shapes (the translate keeps groupRings from nesting them).
  const int numShapes = 12;
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
  const std::vector<std::string> baseFlags = {"--nmax=3000"};

  // The uninterrupted reference output.
  const std::string refShots = dir + "/ref.shots";
  {
    std::vector<std::string> args = {input, refShots};
    args.insert(args.end(), baseFlags.begin(), baseFlags.end());
    check(runCli(cli, args) == 0, "reference run exits 0");
  }
  const std::string refBytes = readBytes(refShots);
  check(!refBytes.empty(), "reference run produced output");

  // --- Drill 1: SIGKILL at randomized points, then --resume -------------
  std::mt19937 rng(20260806);  // fixed seed: reproducible kill points
  const int resumeThreads[] = {1, 4, 8};
  for (int point = 0; point < 5; ++point) {
    const int delayMs = 20 + static_cast<int>(rng() % 350);
    const int threads = resumeThreads[point % 3];
    const std::string tag = "k" + std::to_string(point);
    const std::string journal = dir + "/" + tag + ".journal";
    const std::string shots = dir + "/" + tag + ".shots";

    std::vector<std::string> killArgs = {input, shots, "--threads=2",
                                         "--journal=" + journal};
    killArgs.insert(killArgs.end(), baseFlags.begin(), baseFlags.end());
    const bool killed = runAndKill(cli, killArgs, delayMs);

    std::vector<std::string> resumeArgs = {
        input, shots, "--threads=" + std::to_string(threads),
        "--journal=" + journal, "--resume"};
    resumeArgs.insert(resumeArgs.end(), baseFlags.begin(), baseFlags.end());
    const int exit = runCli(cli, resumeArgs);
    check(exit == 0, tag + ": resume (" + std::to_string(delayMs) + "ms" +
                         (killed ? ", killed" : ", finished") + ", " +
                         std::to_string(threads) + " threads) exits 0");
    check(readBytes(shots) == refBytes,
          tag + ": resumed output byte-identical");
  }

  // Drill 1 epilogue: a killed-and-resumed run must also pass the
  // --verify acceptance gate — artifact hashes and independent re-check.
  {
    const std::string journal = dir + "/kv.journal";
    const std::string shots = dir + "/kv.shots";
    const std::string json = dir + "/kv.json";
    std::vector<std::string> killArgs = {input, shots, "--threads=2",
                                         "--journal=" + journal,
                                         "--metrics-json=" + json};
    killArgs.insert(killArgs.end(), baseFlags.begin(), baseFlags.end());
    runAndKill(cli, killArgs, 120);
    std::vector<std::string> resumeArgs = {input, shots,
                                           "--journal=" + journal,
                                           "--resume",
                                           "--metrics-json=" + json};
    resumeArgs.insert(resumeArgs.end(), baseFlags.begin(), baseFlags.end());
    check(runCli(cli, resumeArgs) == 0, "kv: resume after SIGKILL exits 0");
    check(readBytes(shots) == refBytes, "kv: resumed output byte-identical");
    check(runCli(cli, {"--verify", json}) == 0,
          "kv: killed+resumed run passes --verify");
  }

  // --- Drill 2: --isolate survives an injected worker crash -------------
  // In-process reference: the same shape degraded via kThrow lands on the
  // same fallback fracture the crash-isolated culprit gets.
  const int culprit = 5;
  const std::string throwShots = dir + "/throw.shots";
  {
    std::vector<std::string> args = {
        input, throwShots, "--inject=throw@" + std::to_string(culprit)};
    args.insert(args.end(), baseFlags.begin(), baseFlags.end());
    check(runCli(cli, args) == 1, "in-process throw reference exits 1");
  }
  const std::string throwBytes = readBytes(throwShots);
  check(!throwBytes.empty() && throwBytes != refBytes,
        "throw reference degraded exactly one shape");

  const std::string crashShots = dir + "/crash.shots";
  {
    std::vector<std::string> args = {
        input, crashShots, "--isolate", "--jobs=3",
        "--inject=crash@" + std::to_string(culprit)};
    args.insert(args.end(), baseFlags.begin(), baseFlags.end());
    check(runCli(cli, args) == 5,
          "isolate + injected crash exits 5 (partial success)");
  }
  check(readBytes(crashShots) == throwBytes,
        "crash-isolated output == in-process degradation");

  // A clean supervised run, for contrast: identical output, exit 0.
  const std::string cleanShots = dir + "/clean.shots";
  {
    std::vector<std::string> args = {input, cleanShots, "--isolate",
                                     "--jobs=3"};
    args.insert(args.end(), baseFlags.begin(), baseFlags.end());
    check(runCli(cli, args) == 0, "clean isolate run exits 0");
  }
  check(readBytes(cleanShots) == refBytes,
        "clean isolate output == plain output");

  // --- Drill 3: the watchdog SIGKILLs hung workers ----------------------
  const int hangCulprit = 3;
  const std::string hangRefShots = dir + "/hang_ref.shots";
  {
    std::vector<std::string> args = {
        input, hangRefShots,
        "--inject=throw@" + std::to_string(hangCulprit)};
    args.insert(args.end(), baseFlags.begin(), baseFlags.end());
    check(runCli(cli, args) == 1, "hang reference run exits 1");
  }
  const std::string hangShots = dir + "/hang.shots";
  {
    std::vector<std::string> args = {
        input, hangShots, "--isolate", "--jobs=2",
        "--worker-timeout-ms=1500", "--retries=1",
        "--inject=hang@" + std::to_string(hangCulprit)};
    args.insert(args.end(), baseFlags.begin(), baseFlags.end());
    check(runCli(cli, args) == 5,
          "isolate + injected hang exits 5 (watchdog fired)");
  }
  check(readBytes(hangShots) == readBytes(hangRefShots),
        "hang-isolated output == in-process degradation");

  // --- Drill 4: the supervised parent journals, seals and resumes -------
  {
    const std::string journal = dir + "/iso.jrnl";
    const std::string shots = dir + "/iso_j.shots";
    const std::string json = dir + "/iso_j.json";
    std::vector<std::string> args = {input, shots, "--isolate", "--jobs=3",
                                     "--journal=" + journal,
                                     "--metrics-json=" + json};
    args.insert(args.end(), baseFlags.begin(), baseFlags.end());
    check(runCli(cli, args) == 0, "journaled isolate run exits 0");
    check(readBytes(shots) == refBytes,
          "journaled isolate output == plain output");
    check(mbf::verifyHashSidecar(journal).ok(),
          "journaled isolate run sealed its journal");
    check(runCli(cli, {"--verify", json}) == 0,
          "journaled isolate run passes --verify");

    std::string meta;
    std::vector<std::string> records;
    check(mbf::recoverJournal(journal, meta, records).ok() &&
              records.size() == static_cast<std::size_t>(numShapes),
          "isolate journal holds one frame per shape");
    const std::string partial = dir + "/iso_partial.jrnl";
    {
      mbf::JournalWriter w;
      check(w.create(partial, meta, mbf::JournalFsync::kNone).ok(),
            "prefix journal written");
      for (std::size_t i = 0; i < 5 && i < records.size(); ++i) {
        (void)w.append(records[i]);
      }
      w.close();
    }
    const std::string resumedShots = dir + "/iso_r.shots";
    const std::string resumedJson = dir + "/iso_r.json";
    args = {input, resumedShots, "--isolate", "--jobs=3",
            "--journal=" + partial, "--resume",
            "--metrics-json=" + resumedJson};
    args.insert(args.end(), baseFlags.begin(), baseFlags.end());
    check(runCli(cli, args) == 0, "isolate --resume from 5 frames exits 0");
    check(readBytes(resumedShots) == refBytes,
          "isolate --resume output byte-identical");
    check(readBytes(resumedJson).find("\"resumed_shapes\": 5") !=
              std::string::npos,
          "isolate --resume replayed the 5 journaled shapes");
    check(runCli(cli, {"--verify", resumedJson}) == 0,
          "isolate --resume run passes --verify");
  }

  // --- Drill 5: a journal of the old per-shape format is refused --------
  {
    // The header meta a flat journaled run of this layout wrote before
    // flat runs became plans: the layout fingerprint's hash under the
    // old per-shape journal tag.
    mbf::BatchConfig config;
    config.params.nmax = 3000;
    const std::string fingerprint =
        mbf::journalMetaFor(mbf::groupRings(rings), config);
    const std::string oldMeta =
        "mbf-shape-journal v1 shapes=" + std::to_string(numShapes) +
        " base=0 " + fingerprint.substr(fingerprint.find("fp="));
    const std::string journal = dir + "/old_format.jrnl";
    {
      mbf::JournalWriter w;
      check(w.create(journal, oldMeta, mbf::JournalFsync::kNone).ok(),
            "old-format journal written");
      mbf::ShapeRecord record;
      record.shapeIndex = 0;
      (void)w.append(mbf::encodeShapeRecord(record));
      w.close();
    }
    std::vector<std::string> args = {input, dir + "/old_format.shots",
                                     "--journal=" + journal, "--resume"};
    args.insert(args.end(), baseFlags.begin(), baseFlags.end());
    const std::string log = dir + "/old_format.log";
    check(runCli(cli, args, log) == 3 &&
              readBytes(log).find("belongs to a different run") !=
                  std::string::npos,
          "old-format journal: --resume exits 3, meta mismatch");
  }

  // --- Drill 6: a supervised run into a reused output path -------------
  {
    // cleanShots' work directory still holds the clean run's worker
    // logs, from other parameters.
    std::vector<std::string> args = {input, cleanShots, "--isolate",
                                     "--jobs=3", "--gamma=1.5"};
    args.insert(args.end(), baseFlags.begin(), baseFlags.end());
    check(runCli(cli, args) == 0,
          "second isolate run (--gamma=1.5) into the same path exits 0");
    const std::string freshShots = dir + "/gamma_fresh.shots";
    args[1] = freshShots;
    check(runCli(cli, args) == 0, "fresh-directory --gamma=1.5 run exits 0");
    check(readBytes(cleanShots) == readBytes(freshShots),
          "reused work dir output == fresh-directory output");
  }

  return drill::finish("crash drill");
}
