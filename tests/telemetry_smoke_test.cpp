// Telemetry smoke drill: process-level verification that mbf_cli's
// --metrics-json / --trace-json artifacts are well-formed and truthful,
// against the real binary. Run as:
//
//   mbf_telemetry_smoke <path-to-mbf_cli>
//
// Checks:
//   1. A plain run with both flags exits clean, the manifest parses and
//      its totals match the .shots output, its per-cell claims expanded
//      over the re-derived plan describe the .shots sections one by one
//      (the repeated clip's cell lists its three instances once), and
//      the trace parses and carries the fracture-stage and layer spans.
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

#include "audit/verify_run.h"
#include "benchgen/ilt_synth.h"
#include "drill_util.h"
#include "io/poly_io.h"
#include "mdp/hierarchy.h"
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

  // Six distinct clips, then two more copies of the first: a flat plan
  // of six cells and eight instances.
  const int numShapes = 8;
  std::vector<mbf::Polygon> rings;
  for (int i = 0; i < numShapes; ++i) {
    mbf::IltSynthConfig cfg;
    cfg.seed = 7000 + static_cast<unsigned>(i < 6 ? i : 0);
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
    // The claims are listed once per plan cell. Expanded over the plan
    // --verify re-derives, they describe the .shots sections one by one.
    mbf::BatchConfig config;
    config.params.nmax = 300;
    mbf::HierPlan plan;
    std::vector<mbf::ShotSection> sections;
    const mbf::JsonValue* cells = manifest.find("cells");
    std::vector<mbf::CellClaims<const mbf::JsonValue*>> cellClaims;
    if (cells != nullptr && cells->isArray()) {
      for (const mbf::JsonValue& cell : cells->items) {
        auto& claims = cellClaims.emplace_back();
        claims.instances =
            static_cast<std::int64_t>(cell.find("instances")->number);
        for (const mbf::JsonValue& claim : cell.find("shapes")->items) {
          claims.shapes.push_back(&claim);
        }
      }
    }
    std::vector<std::string> issues;
    std::vector<const mbf::JsonValue*> claims;
    bool truthful =
        mbf::planLayoutFile(input, config, false, "", plan).ok() &&
        mbf::parseShotSections(readBytes(telShots), sections).ok();
    if (truthful) claims = mbf::expandCellClaims(plan, cellClaims, issues);
    truthful = truthful && issues.empty() && claims.size() == sections.size();
    for (std::size_t at = 0; truthful && at < claims.size(); ++at) {
      truthful = claims[at]->find("shots")->number ==
                     static_cast<double>(sections[at].shots.size()) &&
                 claims[at]->find("degraded")->boolean ==
                     sections[at].claimedDegraded;
    }
    check(truthful && static_cast<int>(claims.size()) == numShapes,
          "cell claims expanded over the plan match every .shots section");
    check(cells != nullptr && cells->isArray() && cells->items.size() == 6 &&
              cells->items[0].find("instances")->number == 3.0,
          "the repeated clip's cell lists its 3 instances once");
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
    bool layers = true;
    for (const char* layer :
         {"io.parse", "io.plan", "driver", "io.shots_write",
          "analysis.shot_stats", "manifest.build", "manifest.write"}) {
      layers = layers && names.count(layer) == 1;
    }
    check(layers, "trace covers the run's layers, the manifest's too");
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
