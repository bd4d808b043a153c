// Output-integrity drills: process-level verification of the --verify
// acceptance gate, the --selfcheck inline audit and the SIGTERM graceful
// drain against the real mbf_cli binary. Run as:
//
//   mbf_verify_drill <path-to-mbf_cli>
//
// Drills:
//   1. Clean runs verify: a serial run and an 8-way supervised
//      (--isolate) run both pass `mbf_cli --verify` with zero
//      discrepancies, and their .shots outputs are byte-identical.
//   2. Selfcheck byte-identity: the .shots artifact is byte-identical
//      with --selfcheck on and off, and a clean selfcheck exits like the
//      unchecked run.
//   3. Corruption drill: a byte flip or truncation in every artifact
//      kind (.shots, manifest, journal) makes `--verify` exit 6 with a
//      diagnostic naming the artifact; so does a shot line appended
//      after the last section, which also names the shape it lands in.
//   4. Graceful drain: SIGTERM sent once the run's journal is open, with
//      the fill still ahead, exits 5 with the manifest stamped
//      "interrupted"; a --resume completes the run and then passes
//      --verify, and the two manifests' recovery.fresh_shapes sum to the
//      shape count (a drain counts only the shapes it finished).
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
#include <string>
#include <vector>

#include "benchgen/ilt_synth.h"
#include "drill_util.h"
#include "io/poly_io.h"
#include "support/journal.h"
#include "support/telemetry.h"

namespace {

using drill::check;
using drill::readBytes;
using drill::runCli;

bool writeBytes(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(os);
}

/// Launches mbf_cli, SIGTERMs it as soon as its journal at `journal`
/// reads back (the run has planned and opened it, so every shape is still
/// to come), waits, and returns the exit code (-2 when it died to the
/// signal instead of draining). A run that exits before its journal shows
/// is not signalled; its own exit code is returned.
int runAndTermOnceJournaled(const std::string& cli,
                            const std::vector<std::string>& args,
                            const std::string& journal) {
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
  if (pid < 0) return -1;
  int wstatus = 0;
  bool exited = false;
  for (int tries = 0; tries < 60000; ++tries) {
    std::string meta;
    std::vector<std::string> records;
    if (mbf::recoverJournal(journal, meta, records).ok()) break;
    if (waitpid(pid, &wstatus, WNOHANG) == pid) {
      exited = true;
      break;
    }
    usleep(500);
  }
  if (!exited) {
    kill(pid, SIGTERM);
    waitpid(pid, &wstatus, 0);
  }
  if (!WIFEXITED(wstatus)) return -2;
  return WEXITSTATUS(wstatus);
}

/// recovery.fresh_shapes of a run manifest; -1 when it cannot be read.
int freshShapes(const std::string& manifest) {
  mbf::JsonValue doc;
  if (!mbf::parseJson(readBytes(manifest), doc).ok()) return -1;
  const mbf::JsonValue* recovery = doc.find("recovery");
  const mbf::JsonValue* fresh =
      recovery != nullptr ? recovery->find("fresh_shapes") : nullptr;
  return fresh != nullptr ? static_cast<int>(fresh->number) : -1;
}

/// Flips one byte somewhere past `offset` and rewrites the file.
bool flipByte(const std::string& path, std::size_t offset) {
  std::string bytes = readBytes(path);
  if (bytes.size() <= offset) return false;
  bytes[offset] = static_cast<char>(bytes[offset] ^ 0x01);
  return writeBytes(path, bytes);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: mbf_verify_drill <path-to-mbf_cli>\n";
    return 2;
  }
  const std::string cli = argv[1];
  const std::string dir = "verify_drill_tmp";
  std::system(("rm -rf '" + dir + "' && mkdir -p '" + dir + "'").c_str());

  // Spaced-out ILT shapes (translate keeps groupRings from nesting them).
  const int numShapes = 10;
  std::vector<mbf::Polygon> rings;
  for (int i = 0; i < numShapes; ++i) {
    mbf::IltSynthConfig cfg;
    // Seeds shared with crash_drill: each shape fully converges under
    // --nmax=3000, so clean runs exit 0 (no failing-pixel exit 4).
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

  // --- Drill 1: clean runs pass --verify --------------------------------
  const std::string serialShots = dir + "/serial.shots";
  const std::string serialJson = dir + "/serial.json";
  const std::string serialJrnl = dir + "/serial.jrnl";
  {
    std::vector<std::string> args = {input, serialShots,
                                     "--metrics-json=" + serialJson,
                                     "--journal=" + serialJrnl};
    args.insert(args.end(), baseFlags.begin(), baseFlags.end());
    check(runCli(cli, args) == 0, "clean serial run exits 0");
  }
  check(runCli(cli, {"--verify", serialJson}) == 0,
        "serial run passes --verify");
  check(runCli(cli, {"--verify", dir}) == 0,
        "--verify accepts the run directory too");

  const std::string supShots = dir + "/sup.shots";
  const std::string supJson = dir + "/sup.json";
  {
    std::vector<std::string> args = {input, supShots, "--isolate",
                                     "--jobs=8",
                                     "--metrics-json=" + supJson};
    args.insert(args.end(), baseFlags.begin(), baseFlags.end());
    check(runCli(cli, args) == 0, "clean 8-job supervised run exits 0");
  }
  check(runCli(cli, {"--verify", supJson}) == 0,
        "supervised run passes --verify");
  check(readBytes(supShots) == readBytes(serialShots),
        "supervised output == serial output");

  // --- Drill 2: --selfcheck byte-identity -------------------------------
  const std::string scShots = dir + "/selfcheck.shots";
  {
    std::vector<std::string> args = {input, scShots, "--selfcheck"};
    args.insert(args.end(), baseFlags.begin(), baseFlags.end());
    std::string log;
    check(runCli(cli, args, &log) == 0, "clean --selfcheck run exits 0");
    check(log.find("selfcheck") != std::string::npos &&
              log.find("0 findings") != std::string::npos,
          "selfcheck reports a clean audit");
  }
  check(readBytes(scShots) == readBytes(serialShots),
        ".shots byte-identical with --selfcheck on vs off");

  // --- Drill 3: corruption drill ----------------------------------------
  // Each artifact kind gets a byte flip and (for the framed/sectioned
  // ones) a truncation; --verify must exit 6 and name the artifact.
  auto corrupt = [&](const std::string& what, const std::string& victim,
                     bool truncate, const std::string& expectDiag) {
    const std::string backup = readBytes(victim);
    bool mutated;
    if (truncate) {
      mutated = writeBytes(victim,
                           backup.substr(0, backup.size() * 2 / 3));
    } else {
      mutated = flipByte(victim, backup.size() / 2);
    }
    check(mutated, what + ": corruption applied");
    std::string log;
    const int exit = runCli(cli, {"--verify", serialJson}, &log);
    check(exit == 6, what + ": --verify exits 6");
    check(log.find(expectDiag) != std::string::npos,
          what + ": diagnostic names the artifact");
    check(writeBytes(victim, backup), what + ": restored");
    check(runCli(cli, {"--verify", serialJson}) == 0,
          what + ": --verify clean again after restore");
  };
  corrupt("shots byte-flip", serialShots, false, "shots");
  corrupt("shots truncation", serialShots, true, "shots");
  corrupt("manifest byte-flip", serialJson, false, "serial.json");
  corrupt("journal byte-flip", serialJrnl, false, "journal");
  corrupt("journal truncation", serialJrnl, true, "journal");

  // A semantic lie, not just bit rot: rewrite a claimed shot count in
  // the .shots header. The hash catches it, and so does the independent
  // re-check (belt and braces).
  {
    const std::string backup = readBytes(serialShots);
    std::string lied = backup;
    const std::string needle = " shots,";
    const std::size_t at = lied.find(needle);
    check(at != std::string::npos && at > 0, "header lie: target found");
    lied[at - 1] = lied[at - 1] == '9' ? '8' : '9';
    check(writeBytes(serialShots, lied), "header lie: applied");
    std::string log;
    check(runCli(cli, {"--verify", serialJson}, &log) == 6,
          "header lie: --verify exits 6");
    check(writeBytes(serialShots, backup), "header lie: restored");
  }

  // An extra shot appended after the last section: its influence window
  // misses the last shape's grid in x only. --verify must report it
  // against that shape, not crash.
  {
    const std::string backup = readBytes(serialShots);
    check(writeBytes(serialShots, backup + "1 2 3 4\n"),
          "appended shot: applied");
    std::string log;
    check(runCli(cli, {"--verify", serialJson}, &log) == 6,
          "appended shot: --verify exits 6");
    check(log.find("shape " + std::to_string(numShapes - 1) + ":") !=
              std::string::npos,
          "appended shot: the finding names the last shape");
    check(writeBytes(serialShots, backup), "appended shot: restored");
  }

  // --- Drill 4: graceful drain + resume + verify ------------------------
  const std::string drainShots = dir + "/drain.shots";
  const std::string drainJson = dir + "/drain.json";
  const std::string drainJrnl = dir + "/drain.jrnl";
  int drainedFresh = -1;
  {
    std::vector<std::string> args = {input, drainShots,
                                     "--metrics-json=" + drainJson,
                                     "--journal=" + drainJrnl};
    args.insert(args.end(), baseFlags.begin(), baseFlags.end());
    // The signal lands before the fill ends: the whole fracture of the
    // input (~0.1 s on a 4-vCPU host) is still ahead when the journal
    // first reads back.
    const int exit = runAndTermOnceJournaled(cli, args, drainJrnl);
    check(exit == 5,
          "SIGTERM drains gracefully (exit " + std::to_string(exit) + ")");
    check(readBytes(drainJson).find("\"status\": \"interrupted\"") !=
              std::string::npos,
          "drained manifest is stamped interrupted");
    drainedFresh = freshShapes(drainJson);
    check(drainedFresh >= 0 && drainedFresh < numShapes,
          "the drain left shapes for the resume (" +
              std::to_string(drainedFresh) + " fresh)");
  }
  {
    std::vector<std::string> args = {input, drainShots,
                                     "--metrics-json=" + drainJson,
                                     "--journal=" + drainJrnl, "--resume"};
    args.insert(args.end(), baseFlags.begin(), baseFlags.end());
    const int exit = runCli(cli, args);
    check(exit == 0 || exit == 4, "drained run resumes to completion");
  }
  // Each shape is fractured once across the drained run and its resume:
  // a drain counts only the shapes it finished as fresh.
  check(drainedFresh >= 0 && drainedFresh + freshShapes(drainJson) == numShapes,
        "drained + resumed fresh_shapes sum to the shape count (" +
            std::to_string(drainedFresh) + " + " +
            std::to_string(freshShapes(drainJson)) + ")");
  check(readBytes(drainShots) == readBytes(serialShots),
        "resumed-after-drain output byte-identical to serial");
  check(runCli(cli, {"--verify", drainJson}) == 0,
        "resumed-after-drain run passes --verify");

  return drill::finish("verify drill");
}
