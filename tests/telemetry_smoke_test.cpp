// Telemetry smoke drill: process-level verification that mbf_cli's
// --metrics-json / --trace-json artifacts are well-formed and truthful,
// against the real binary. Run as:
//
//   mbf_telemetry_smoke <path-to-mbf_cli>
//
// Checks:
//   1. A plain run with both flags exits clean, the manifest parses and
//      its totals match the .shots output, the trace parses and carries
//      the fracture-stage spans.
//   2. Telemetry does not perturb results: the .shots output is
//      byte-identical with and without the flags, serial and parallel.
//   3. A supervised crash drill (--isolate with an injected worker
//      crash) still produces one merged, well-formed trace containing
//      spans from the supervisor AND at least two worker processes
//      (each streams its spans as its last frame), plus the crash
//      lifecycle markers, and exactly one `lth` span: the supervisor's
//      Lth contour walk, which no worker repeats.
//
// Standalone driver (no gtest), same pattern as the crash drills: it
// exercises the CLI process boundary, not library internals.
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "benchgen/ilt_synth.h"
#include "drill_util.h"
#include "io/poly_io.h"
#include "support/telemetry.h"

namespace {

using drill::check;
using drill::readBytes;
using drill::runCli;

/// Non-comment non-empty lines of a .shots file == emitted shots.
int countShotLines(const std::string& path) {
  std::ifstream is(path);
  std::string line;
  int shots = 0;
  while (std::getline(is, line)) {
    if (!line.empty() && line[0] != '#') ++shots;
  }
  return shots;
}

bool loadJson(const std::string& path, mbf::JsonValue& out) {
  const std::string text = readBytes(path);
  return !text.empty() && mbf::parseJson(text, out).ok();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: mbf_telemetry_smoke <path-to-mbf_cli>\n";
    return 2;
  }
  const std::string cli = argv[1];
  const std::string dir = "telemetry_smoke_tmp";
  std::system(("rm -rf '" + dir + "' && mkdir -p '" + dir + "'").c_str());

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
  const std::vector<std::string> baseFlags = {"--nmax=300"};

  // --- 1. Plain run: manifest + trace well-formed and truthful --------
  const std::string refShots = dir + "/ref.shots";
  {
    std::vector<std::string> args = {input, refShots};
    args.insert(args.end(), baseFlags.begin(), baseFlags.end());
    check(runCli(cli, args) == 0, "reference run exits 0");
  }
  const std::string refBytes = readBytes(refShots);
  check(!refBytes.empty(), "reference run produced output");

  const std::string telShots = dir + "/tel.shots";
  const std::string manifestPath = dir + "/run.json";
  const std::string tracePath = dir + "/run.trace.json";
  {
    std::vector<std::string> args = {input, telShots,
                                     "--metrics-json=" + manifestPath,
                                     "--trace-json=" + tracePath};
    args.insert(args.end(), baseFlags.begin(), baseFlags.end());
    check(runCli(cli, args) == 0, "telemetry run exits 0");
  }
  check(readBytes(telShots) == refBytes,
        "output byte-identical with telemetry on");

  mbf::JsonValue manifest;
  check(loadJson(manifestPath, manifest), "manifest parses as JSON");
  if (manifest.isObject()) {
    const mbf::JsonValue* schema = manifest.find("schema");
    check(schema != nullptr && schema->string == "mbf-run-manifest",
          "manifest schema tag present");
    const mbf::JsonValue* totals = manifest.find("totals");
    check(totals != nullptr &&
              totals->find("shots")->number == countShotLines(telShots),
          "manifest totals.shots == .shots line count");
    const mbf::JsonValue* shapes = manifest.find("shapes");
    check(shapes != nullptr && shapes->isArray() &&
              static_cast<int>(shapes->items.size()) == numShapes,
          "manifest has one entry per shape");
  }

  mbf::JsonValue trace;
  check(loadJson(tracePath, trace), "trace parses as JSON");
  if (trace.isObject()) {
    const mbf::JsonValue* events = trace.find("traceEvents");
    std::set<std::string> names;
    if (events != nullptr && events->isArray()) {
      for (const mbf::JsonValue& e : events->items) {
        names.insert(e.find("name")->string);
      }
    }
    check(events != nullptr && !events->items.empty(),
          "trace has events");
    check(names.count("refine") == 1 && names.count("simplify") == 1 &&
              names.count("corner-extraction") == 1,
          "trace covers the fracture stages");
  }

  // --- 2. Parallel byte-identity ------------------------------------
  const std::string par4a = dir + "/p4a.shots";
  const std::string par4b = dir + "/p4b.shots";
  {
    std::vector<std::string> args = {input, par4a, "--threads=4"};
    args.insert(args.end(), baseFlags.begin(), baseFlags.end());
    check(runCli(cli, args) == 0, "4-thread run exits 0");
  }
  {
    std::vector<std::string> args = {input, par4b, "--threads=4",
                                     "--trace-json=" + dir + "/p4.trace"};
    args.insert(args.end(), baseFlags.begin(), baseFlags.end());
    check(runCli(cli, args) == 0, "4-thread telemetry run exits 0");
  }
  check(readBytes(par4a) == readBytes(par4b) &&
            readBytes(par4a) == refBytes,
        "4-thread output byte-identical with telemetry on");

  // --- 3. Supervised crash drill produces one merged trace -----------
  const int culprit = 3;
  const std::string isoShots = dir + "/iso.shots";
  const std::string isoManifest = dir + "/iso.json";
  const std::string isoTrace = dir + "/iso.trace.json";
  {
    std::vector<std::string> args = {
        input, isoShots, "--isolate", "--jobs=2",
        "--inject=crash@" + std::to_string(culprit),
        "--metrics-json=" + isoManifest, "--trace-json=" + isoTrace};
    args.insert(args.end(), baseFlags.begin(), baseFlags.end());
    check(runCli(cli, args) == 5,
          "isolate + injected crash exits 5 (partial success)");
  }

  mbf::JsonValue isoDoc;
  check(loadJson(isoManifest, isoDoc), "supervised manifest parses");
  if (isoDoc.isObject()) {
    const mbf::JsonValue* recovery = isoDoc.find("recovery");
    check(recovery != nullptr && recovery->find("enabled")->boolean &&
              recovery->find("crashed_shapes")->number >= 1,
          "manifest records the crash isolation");
  }

  mbf::JsonValue isoTraceDoc;
  check(loadJson(isoTrace, isoTraceDoc), "supervised trace parses");
  if (isoTraceDoc.isObject()) {
    const mbf::JsonValue* events = isoTraceDoc.find("traceEvents");
    std::set<int> pids;
    bool sawWorkerLifecycle = false;
    bool sawIsolate = false;
    int lthWalks = 0;
    if (events != nullptr && events->isArray()) {
      for (const mbf::JsonValue& e : events->items) {
        pids.insert(static_cast<int>(e.find("pid")->number));
        const std::string& name = e.find("name")->string;
        if (name.rfind("worker [", 0) == 0) sawWorkerLifecycle = true;
        if (name.rfind("isolate shape", 0) == 0) sawIsolate = true;
        if (name == "lth") ++lthWalks;
      }
    }
    // Supervisor + at least two distinct worker processes in one file.
    check(pids.size() >= 3, "trace spans from >= 2 worker processes");
    check(sawWorkerLifecycle, "trace has worker lifecycle spans");
    check(sawIsolate, "trace marks the crash isolation");
    // The supervisor resolves Lth before it forks its workers.
    check(lthWalks == 1, "one Lth contour walk across all processes");
  }

  return drill::finish("telemetry smoke");
}
