// Hierarchical-path drills: process-level verification of mbf_cli
// --hier and the persistent cell-fracture cache against the real
// binary. Run as:
//
//   mbf_hier_drill <path-to-mbf_cli>
//
// Drills:
//   1. Equivalence: on an AREF-heavy layout (5 unique cells, 51
//      instances, orphan cell, TOP listed last) the cold --hier shot
//      multiset is identical to the flat run's, and --hier output is
//      byte-identical at 1, 4 and 8 worker threads.
//   2. Cache accounting: the cold manifest reports one miss per unique
//      reachable cell and zero hits; the orphan cell is neither
//      reachable nor fractured.
//   3. Warm re-run: 100% cache hits, zero cells fractured, .shots
//      byte-identical to the cold run, and the run passes `mbf_cli
//      --verify`.
//   4. Tamper: a byte flip in one cached .cell artifact is rejected
//      (re-fractured, never silently reused) and the output stays
//      byte-identical.
//   5. Invalidation: changing one fracture parameter (--gamma) misses
//      every cell; the repeat under the new key hits every cell.
//   6. Corpus: cyclic, over-deep and coordinate-overflowing GDS inputs
//      (flat and --hier), and shapes whose fracture grid would leave
//      int32 (.poly and --hier), exit 3 with diagnostics naming the
//      defect; an ambiguous root without --top-cell names the
//      candidates.
//   7. --selfcheck audits hierarchically produced shots clean.
//   8. Crash-at-every-frame: for every prefix k of the cell journal
//      (the exact state a SIGKILL between frames k and k+1 leaves,
//      plus a torn-tail variant for a SIGKILL mid-write) a --resume
//      replays k cells, fractures the rest, and produces byte-identical
//      .shots that pass --verify — serial AND --isolate --jobs=4.
//   9. A genuine SIGKILL mid-run (best-effort timing) resumes to
//      byte-identical output.
//  10. Clean --hier --isolate --jobs=4 output is byte-identical to
//      serial --hier and passes --verify; the workers stream their
//      outcomes to the parent, so the work directory holds only their
//      logs.
//  11. totals.shape_seconds_sum counts each fractured shape once: at
//      most threads x wall on the cold run, 0 on the warm one.
//  12. Flat --cell-cache: a flat run plans one cell per distinct shape
//      (5 for the 51 instances) and its manifest reports the repeats it
//      did not fracture; a warm flat run over the same .gds hits one
//      entry per distinct shape, fractures none and writes the flat
//      run's bytes.
//  13. --hier --isolate --inject=crash@i crash-isolates exactly
//      plan-shape ordinal i, and its output matches the in-process
//      --hier --inject=throw@i degradation.
//  14. Translation: on a chip of curvilinear ILT cells with one copy
//      placed near -2^31, a flat run and a --hier run write
//      byte-identical .shots; a flat --isolate --jobs=4 run of the
//      repeat-heavy drill layout equals the serial flat run, and its
//      workers leave only logs too.
//  15. A shape shared by two cells is counted once by a --hier --isolate
//      run, as in process: 3 fractured shapes of 4 cell shapes, and 3
//      `refine` spans in its trace.
//  16. Piped input: `cat layout.poly | mbf_cli /dev/stdin ... --isolate
//      --jobs=2` exits like the file-input run and writes its bytes —
//      the forked workers inherit the plan and never re-read the input.
//  17. In a cell of three distinct shapes, --hier --isolate --jobs=2
//      --inject=crash@i degrades only shape i: the bytes and
//      totals.degraded_shapes of the in-process --inject=throw@i run.
//  18. A cold then a warm --hier --isolate --cell-cache run: the warm
//      one is all cache hits, fractures no cell and forks no worker.
//  19. The supervising parent SIGKILLed once its journal holds a frame
//      (its own process group): its workers are still running then —
//      the parent journals each cell as its outcomes stream in — and
//      within 30 s no process of the group remains, each worker dying
//      at its next frame; --resume --isolate writes the reference bytes
//      and passes --verify.
//  20. Doubling an AREF's columns changes the manifest only in its
//      count digits: claims are listed once per plan cell, with an
//      instance count, and both runs pass --verify.
//  21. --budget-ms (in process and --isolate) and --inject=throw@i runs
//      pass --verify: the plan fingerprint leaves execution knobs out.
//  22. Raising one cell claim's fail_on (sidecar re-sealed) makes
//      --verify exit 6 with one finding per instance of that cell.
//
// Standalone driver (no gtest), same pattern as mbf_verify_drill: it
// exercises the CLI process boundary, not library internals.
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "audit/independent_checker.h"
#include "benchgen/ilt_synth.h"
#include "drill_util.h"
#include "fracture/problem.h"
#include "io/atomic_file.h"
#include "io/gdsii.h"
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

/// The shot multiset of a .shots file: every section's shots, sorted;
/// empty when the file is unreadable or malformed.
std::vector<std::tuple<int, int, int, int>> shotMultiset(
    const std::string& path) {
  std::string content;
  std::vector<mbf::ShotSection> sections;
  std::vector<std::tuple<int, int, int, int>> out;
  if (!mbf::readFileToString(path, content).ok() ||
      !mbf::parseShotSections(content, sections).ok()) {
    return out;
  }
  for (const mbf::ShotSection& section : sections) {
    for (const mbf::Rect& r : section.shots) {
      out.emplace_back(r.x0, r.y0, r.x1, r.y1);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// manifest[section][key] as a number; NaN when absent or unparseable.
double manifestNumber(const std::string& path, const std::string& section,
                      const std::string& key) {
  mbf::JsonValue doc;
  if (!mbf::parseJson(readBytes(path), doc).ok()) return std::nan("");
  const mbf::JsonValue* block = doc.find(section);
  const mbf::JsonValue* value = block != nullptr ? block->find(key) : nullptr;
  return value != nullptr && value->kind == mbf::JsonValue::Kind::kNumber
             ? value->number
             : std::nan("");
}

/// Trace events of `path` whose name starts with `prefix` (the whole
/// name when `exact`); -1 when the trace does not parse.
int spanCount(const std::string& path, const std::string& prefix,
              bool exact = true) {
  mbf::JsonValue doc;
  if (!mbf::parseJson(readBytes(path), doc).ok()) return -1;
  const mbf::JsonValue* events = doc.find("traceEvents");
  if (events == nullptr || !events->isArray()) return -1;
  int n = 0;
  for (const mbf::JsonValue& e : events->items) {
    const mbf::JsonValue* name = e.find("name");
    if (name == nullptr) continue;
    if (exact ? name->string == prefix : name->string.rfind(prefix, 0) == 0) {
      ++n;
    }
  }
  return n;
}

/// The kinds of file in `dir`, by extension (".jrnl", ".log", ...).
std::set<std::string> fileKinds(const std::string& dir) {
  std::set<std::string> kinds;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    kinds.insert(entry.path().extension().string());
  }
  return kinds;
}

/// What a clean supervised run leaves in its work directory: the worker
/// logs.
const std::set<std::string> kWorkerFileKinds = {".log"};

bool writeGdsFile(const std::string& path, const mbf::GdsLibrary& lib) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) return false;
  mbf::writeGds(os, lib);
  return static_cast<bool>(os);
}

mbf::GdsPolygon poly(std::initializer_list<mbf::Point> pts) {
  mbf::GdsPolygon p;
  p.polygon = mbf::Polygon(pts);
  return p;
}

mbf::GdsAref aref(const std::string& name, mbf::Point origin, int cols,
                  int rows, int pitch) {
  mbf::GdsAref a;
  a.structName = name;
  a.origin = origin;
  a.columns = cols;
  a.rows = rows;
  a.columnPitch = {pitch, 0};
  a.rowPitch = {0, pitch};
  return a;
}

/// The drill layout: 5 unique cells instantiated 51 times through four
/// AREFs and a run of SREFs, plus an unreferenced ORPHAN cell. TOP is
/// listed LAST — real GDS files do that, and the old front()-default
/// top pick would have fractured a leaf cell instead.
mbf::GdsLibrary drillLib() {
  mbf::GdsLibrary lib;
  mbf::GdsStructure c0{"C0", {poly({{0, 0}, {60, 0}, {60, 60}, {0, 60}})},
                       {}, {}};
  mbf::GdsStructure c1{
      "C1",
      {poly({{0, 0}, {80, 0}, {80, 30}, {30, 30}, {30, 80}, {0, 80}})},
      {}, {}};
  mbf::GdsStructure c2{
      "C2", {poly({{0, 0}, {120, 0}, {120, 40}, {0, 40}})}, {}, {}};
  mbf::GdsStructure c3{"C3",
                       {poly({{0, 0}, {90, 0}, {90, 30}, {60, 30}, {60, 90},
                              {30, 90}, {30, 30}, {0, 30}})},
                       {}, {}};
  mbf::GdsStructure c4{
      "C4", {poly({{0, 0}, {50, 0}, {50, 100}, {0, 100}})}, {}, {}};
  mbf::GdsStructure orphan{
      "ORPHAN", {poly({{0, 0}, {70, 0}, {70, 70}, {0, 70}})}, {}, {}};
  mbf::GdsStructure top{"TOP", {}, {}, {}};
  top.arefs.push_back(aref("C0", {0, 0}, 6, 2, 500));          // 12
  top.arefs.push_back(aref("C1", {0, 100000}, 3, 3, 500));     // 9
  top.arefs.push_back(aref("C2", {0, 200000}, 5, 2, 500));     // 10
  top.arefs.push_back(aref("C3", {0, 300000}, 2, 5, 500));     // 10
  for (int i = 0; i < 10; ++i) {                               // 10
    top.srefs.push_back({"C4", {i * 500, 400000}});
  }
  lib.structures = {c0, c1, c2, orphan, c3, c4, top};
  return lib;
}

/// A linear chain LEVEL0 -> ... -> LEVEL(depth-1), leaf owns a square.
mbf::GdsLibrary chainLib(int depth) {
  mbf::GdsLibrary lib;
  for (int i = 0; i < depth; ++i) {
    mbf::GdsStructure s;
    s.name = "LEVEL" + std::to_string(i);
    if (i + 1 < depth) {
      s.srefs.push_back({"LEVEL" + std::to_string(i + 1), {10, 0}});
    } else {
      s.polygons.push_back(poly({{0, 0}, {40, 0}, {40, 40}, {0, 40}}));
    }
    lib.structures.push_back(std::move(s));
  }
  return lib;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: mbf_hier_drill <path-to-mbf_cli>\n";
    return 2;
  }
  const std::string cli = argv[1];
  const std::string dir = "hier_drill_tmp";
  std::system(("rm -rf '" + dir + "' && mkdir -p '" + dir + "'").c_str());

  const std::string input = dir + "/layout.gds";
  if (!writeGdsFile(input, drillLib())) {
    std::cerr << "cannot write " << input << "\n";
    return 2;
  }
  const std::string cache = dir + "/cell_cache";

  // --- Drill 1: flat vs hier equivalence, thread independence -----------
  const std::string flatShots = dir + "/flat.shots";
  check(runCli(cli, {input, flatShots, "--top-cell=TOP"}) == 0,
        "flat .gds run exits 0");

  const std::string hierShots = dir + "/hier.shots";
  const std::string coldJson = dir + "/cold.json";
  {
    std::string log;
    check(runCli(cli,
                 {input, hierShots, "--hier", "--top-cell=TOP",
                  "--cell-cache=" + cache, "--metrics-json=" + coldJson},
                 &log) == 0,
          "cold --hier run exits 0");
    check(log.find("hier: top 'TOP'") != std::string::npos,
          "hier summary names the resolved top");
  }
  check(!shotMultiset(flatShots).empty() &&
            shotMultiset(hierShots) == shotMultiset(flatShots),
        "hier shot multiset == flat shot multiset");

  for (const int threads : {4, 8}) {
    const std::string t = std::to_string(threads);
    const std::string shots = dir + "/hier_t" + t + ".shots";
    // Fresh runs without the cache: proves the hier path itself, not
    // cache replay, is thread-count independent.
    check(runCli(cli, {input, shots, "--hier", "--top-cell=TOP",
                       "--threads=" + t}) == 0,
          "--hier --threads=" + t + " exits 0");
    check(readBytes(shots) == readBytes(hierShots),
          "--threads=" + t + " output byte-identical to serial hier");
  }

  // --- Drill 2: cold-run cache accounting -------------------------------
  {
    const std::string manifest = readBytes(coldJson);
    check(manifest.find("\"cells_reachable\": 6") != std::string::npos,
          "cold manifest: 6 reachable cells (orphan excluded)");
    check(manifest.find("\"unique_cells_fractured\": 5") != std::string::npos,
          "cold manifest: 5 unique cells fractured");
    check(manifest.find("\"cache_hits\": 0") != std::string::npos,
          "cold manifest: zero cache hits");
    check(manifest.find("\"cache_misses\": 5") != std::string::npos,
          "cold manifest: one miss per unique cell");
    check(manifest.find("\"instantiated_shapes\": 51") != std::string::npos,
          "cold manifest: 51 instantiated shapes");
    check(manifest.find("\"fracture_work_avoided\": 46") != std::string::npos,
          "cold manifest: flat-equivalent work avoided = 46");
  }
  check(runCli(cli, {"--verify", coldJson}) == 0,
        "cold hier run passes --verify");

  // --- Drill 3: warm re-run ---------------------------------------------
  const std::string warmShots = dir + "/warm.shots";
  const std::string warmJson = dir + "/warm.json";
  check(runCli(cli, {input, warmShots, "--hier", "--top-cell=TOP",
                     "--cell-cache=" + cache,
                     "--metrics-json=" + warmJson}) == 0,
        "warm --hier run exits 0");
  {
    const std::string manifest = readBytes(warmJson);
    check(manifest.find("\"cache_hits\": 5") != std::string::npos,
          "warm manifest: 100% cache hits");
    check(manifest.find("\"cache_misses\": 0") != std::string::npos,
          "warm manifest: zero misses");
    check(manifest.find("\"unique_cells_fractured\": 0") != std::string::npos,
          "warm manifest: zero cells fractured");
  }
  check(readBytes(warmShots) == readBytes(hierShots),
        "warm .shots byte-identical to cold .shots");
  check(runCli(cli, {"--verify", warmJson}) == 0,
        "warm hier run passes --verify");

  // --- Drill 4: cache tamper --------------------------------------------
  // Runs before the parameter-change drill so the cache holds exactly
  // the five default-parameter entries the tamper run will consult.
  {
    std::string victim;
    for (const auto& entry : std::filesystem::directory_iterator(cache)) {
      const std::string p = entry.path().string();
      if (p.size() > 5 && p.substr(p.size() - 5) == ".cell") {
        victim = p;
        break;
      }
    }
    check(!victim.empty(), "tamper: found a cached .cell artifact");
    std::string bytes = readBytes(victim);
    bytes[bytes.size() / 2] =
        static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
    check(writeBytes(victim, bytes), "tamper: byte flip applied");

    const std::string tamperJson = dir + "/tamper.json";
    const std::string tamperShots = dir + "/tamper.shots";
    check(runCli(cli, {input, tamperShots, "--hier", "--top-cell=TOP",
                       "--cell-cache=" + cache,
                       "--metrics-json=" + tamperJson}) == 0,
          "tampered cache: run still exits 0");
    const std::string manifest = readBytes(tamperJson);
    check(manifest.find("\"cache_rejected\": 1") != std::string::npos,
          "tampered entry rejected, not silently reused");
    check(manifest.find("\"cache_hits\": 4") != std::string::npos,
          "intact entries still hit");
    check(readBytes(tamperShots) == readBytes(hierShots),
          "tampered-cache output byte-identical (re-fractured)");
  }

  // --- Drill 5: parameter change invalidates the cache ------------------
  const std::string gammaJson = dir + "/gamma.json";
  check(runCli(cli, {input, dir + "/gamma.shots", "--hier", "--top-cell=TOP",
                     "--gamma=3", "--cell-cache=" + cache,
                     "--metrics-json=" + gammaJson}) == 0,
        "--gamma=3 hier run exits 0");
  check(readBytes(gammaJson).find("\"cache_hits\": 0") != std::string::npos,
        "changed gamma: no stale hits");
  check(runCli(cli, {input, dir + "/gamma2.shots", "--hier",
                     "--top-cell=TOP", "--gamma=3",
                     "--cell-cache=" + cache,
                     "--metrics-json=" + gammaJson}) == 0 &&
            readBytes(gammaJson).find("\"cache_hits\": 5") !=
                std::string::npos,
        "repeat under new key: all hits");

  // --- Drill 6: defective-hierarchy corpus ------------------------------
  {
    mbf::GdsLibrary cyc;
    mbf::GdsStructure a{
        "A", {poly({{0, 0}, {40, 0}, {40, 40}, {0, 40}})}, {{"B", {10, 0}}},
        {}};
    mbf::GdsStructure b{
        "B", {poly({{0, 0}, {40, 0}, {40, 40}, {0, 40}})}, {{"A", {10, 0}}},
        {}};
    cyc.structures = {a, b};
    const std::string path = dir + "/cycle.gds";
    check(writeGdsFile(path, cyc), "corpus: cycle.gds written");
    std::string log;
    check(runCli(cli, {path, dir + "/cycle.shots", "--hier",
                       "--top-cell=A"},
                 &log) == 3 &&
              log.find("cycle") != std::string::npos,
          "cyclic hierarchy: --hier exits 3 naming the cycle");
    check(runCli(cli, {path, dir + "/cycle.shots", "--top-cell=A"}, &log) ==
                  3 &&
              log.find("cycle") != std::string::npos,
          "cyclic hierarchy: flat run exits 3 naming the cycle");
  }
  {
    const std::string path = dir + "/deep.gds";
    check(writeGdsFile(path, chainLib(70)), "corpus: deep.gds written");
    std::string log;
    check(runCli(cli, {path, dir + "/deep.shots", "--hier"}, &log) == 3 &&
              log.find("deeper than") != std::string::npos,
          "over-deep hierarchy: --hier exits 3 naming the depth");
    check(runCli(cli, {path, dir + "/deep.shots"}, &log) == 3 &&
              log.find("deeper than") != std::string::npos,
          "over-deep hierarchy: flat run exits 3 naming the depth");
  }
  {
    mbf::GdsLibrary far;
    mbf::GdsStructure cell{
        "CELL", {poly({{0, 0}, {80, 0}, {80, 80}, {0, 80}})}, {}, {}};
    mbf::GdsStructure top{"TOP", {}, {{"CELL", {2147483600, 0}}}, {}};
    far.structures = {top, cell};
    const std::string path = dir + "/range.gds";
    check(writeGdsFile(path, far), "corpus: range.gds written");
    std::string log;
    check(runCli(cli, {path, dir + "/range.shots", "--hier"}, &log) == 3 &&
              log.find("32-bit") != std::string::npos,
          "out-of-range placement: --hier exits 3 naming the overflow");
    check(runCli(cli, {path, dir + "/range.shots"}, &log) == 3 &&
              log.find("32-bit") != std::string::npos,
          "out-of-range placement: flat run exits 3 naming the overflow");
  }
  {
    // A shape whose fracture grid (bbox plus Problem::gridPad) would
    // leave int32 is refused up front, naming the shape or the cell.
    const int pad = mbf::Problem::gridPad(mbf::FractureParams{});
    const int low = std::numeric_limits<std::int32_t>::min() + pad - 1;
    const int high = std::numeric_limits<std::int32_t>::max() - pad - 59;
    std::string log;
    for (const auto& [x, limit] : {std::pair{low, "-2^31"},
                                   std::pair{high, "+2^31"}}) {
      const std::string path = dir + "/edge.poly";
      {
        std::ofstream os(path);
        os << "0 0\n60 0\n60 60\n0 60\n\n"
           << x << " 0\n" << x + 60 << " 0\n" << x + 60 << " 60\n" << x
           << " 60\n";
      }
      check(runCli(cli, {path, dir + "/edge.shots"}, &log) == 3 &&
                log.find("shape 1 ") != std::string::npos &&
                log.find("grid halo") != std::string::npos,
            std::string("square in the grid halo of ") + limit +
                ": exits 3 naming it");
    }
    mbf::GdsLibrary edge;
    mbf::GdsStructure cell{
        "CELL", {poly({{0, 0}, {60, 0}, {60, 60}, {0, 60}})}, {}, {}};
    mbf::GdsStructure top{"TOP", {}, {{"CELL", {0, high}}}, {}};
    edge.structures = {top, cell};
    const std::string gds = dir + "/edge.gds";
    check(writeGdsFile(gds, edge), "corpus: edge.gds written");
    check(runCli(cli, {gds, dir + "/edge.shots", "--hier"}, &log) == 3 &&
              log.find("'CELL'") != std::string::npos &&
              log.find("grid halo") != std::string::npos,
          "cell in the grid halo of +2^31: exits 3 naming it");
  }
  {
    // The main layout's ORPHAN makes the root ambiguous without
    // --top-cell; the diagnostic must name the candidates.
    std::string log;
    check(runCli(cli, {input, dir + "/ambig.shots", "--hier"}, &log) == 3 &&
              log.find("ORPHAN") != std::string::npos &&
              log.find("TOP") != std::string::npos,
          "ambiguous root: exits 3 naming the candidates");
  }

  // --- Drill 7: --selfcheck on hierarchically produced shots ------------
  {
    std::string log;
    check(runCli(cli, {input, dir + "/selfcheck.shots", "--hier",
                       "--top-cell=TOP", "--selfcheck"},
                 &log) == 0 &&
              log.find("0 findings") != std::string::npos,
          "--selfcheck audits hier output clean");
  }

  // --- Drill 8: crash at every journal frame ----------------------------
  // A SIGKILL between cell frames k and k+1 leaves a journal holding
  // exactly the header plus the first k records (write() frames are
  // atomic into the kernel); a SIGKILL mid-write leaves those plus a
  // torn tail. Rather than racing a real signal against a fast run,
  // reconstruct every such state exactly from a completed journal and
  // prove each one resumes to byte-identical output.
  {
    const std::string refShots = dir + "/jref.shots";
    const std::string refJournal = dir + "/jref.jrnl";
    check(runCli(cli, {input, refShots, "--hier", "--top-cell=TOP",
                       "--journal=" + refJournal}) == 0,
          "journal drill: reference --hier --journal run exits 0");
    check(readBytes(refShots) == readBytes(hierShots),
          "journal drill: journaled output matches plain hier");

    std::string meta;
    std::vector<std::string> records;
    check(mbf::recoverJournal(refJournal, meta, records).ok() &&
              records.size() == 5,
          "journal drill: reference journal holds 5 cell frames");

    for (std::size_t k = 0; k <= records.size(); ++k) {
      for (const bool torn : {false, true}) {
        if (k == records.size() && torn) continue;  // sealed run has no tail
        const std::string tag =
            "k" + std::to_string(k) + (torn ? "t" : "");
        const std::string journal = dir + "/crash_" + tag + ".jrnl";
        {
          mbf::JournalWriter w;
          if (!w.create(journal, meta, mbf::JournalFsync::kNone).ok()) {
            check(false, "journal drill: cannot write " + journal);
            continue;
          }
          for (std::size_t i = 0; i < k; ++i) (void)w.append(records[i]);
          w.close();
        }
        if (torn) {
          std::ofstream os(journal, std::ios::binary | std::ios::app);
          os.write("\x13\x37\x00", 3);  // half a frame header
        }
        const std::string shots = dir + "/crash_" + tag + ".shots";
        const std::string json = dir + "/crash_" + tag + ".json";
        std::string log;
        const bool ranOk =
            runCli(cli,
                   {input, shots, "--hier", "--top-cell=TOP",
                    "--journal=" + journal, "--resume",
                    "--metrics-json=" + json, "--report"},
                   &log) == 0;
        const std::string want =
            "(" + std::to_string(k) + " resumed / " +
            std::to_string(records.size() - k) + " fresh cell(s))";
        check(ranOk && log.find(want) != std::string::npos,
              "resume @" + tag + ": exits 0, " + want);
        check(readBytes(shots) == readBytes(refShots),
              "resume @" + tag + ": byte-identical .shots");
        check(runCli(cli, {"--verify", json}) == 0,
              "resume @" + tag + ": passes --verify");
      }
    }

    // The same crash states must also resume under the supervisor: the
    // parent replays the journal and shards only the missing cells.
    for (const std::size_t k : {std::size_t{0}, std::size_t{2}}) {
      const std::string tag = "iso_k" + std::to_string(k);
      const std::string journal = dir + "/" + tag + ".jrnl";
      {
        mbf::JournalWriter w;
        if (!w.create(journal, meta, mbf::JournalFsync::kNone).ok()) {
          check(false, "journal drill: cannot write " + journal);
          continue;
        }
        for (std::size_t i = 0; i < k; ++i) (void)w.append(records[i]);
        w.close();
      }
      const std::string shots = dir + "/" + tag + ".shots";
      const std::string json = dir + "/" + tag + ".json";
      check(runCli(cli, {input, shots, "--hier", "--top-cell=TOP",
                         "--isolate", "--jobs=4", "--journal=" + journal,
                         "--resume", "--metrics-json=" + json}) == 0,
            "isolate resume @k=" + std::to_string(k) + ": exits 0");
      check(readBytes(shots) == readBytes(refShots),
            "isolate resume @k=" + std::to_string(k) +
                ": byte-identical .shots");
      check(runCli(cli, {"--verify", json}) == 0,
            "isolate resume @k=" + std::to_string(k) + ": passes --verify");
    }
  }

  // --- Drill 9: genuine SIGKILL mid-run ---------------------------------
  // Best-effort timing: poll the journal and SIGKILL the process after
  // its first frame lands. If the run wins the race and finishes, the
  // resume still must replay a complete journal to identical bytes —
  // either way the contract holds.
  {
    const std::string journal = dir + "/sigkill.jrnl";
    const std::string shots = dir + "/sigkill.shots";
    const pid_t pid = ::fork();
    if (pid == 0) {
      const int fd = ::open("/dev/null", O_WRONLY);
      if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
        ::close(fd);
      }
      ::execl(cli.c_str(), cli.c_str(), input.c_str(), shots.c_str(),
              "--hier", "--top-cell=TOP", ("--journal=" + journal).c_str(),
              static_cast<char*>(nullptr));
      std::_Exit(127);
    }
    bool childExited = false;
    for (int tries = 0; tries < 5000; ++tries) {
      std::string meta;
      std::vector<std::string> records;
      if (mbf::recoverJournal(journal, meta, records).ok() &&
          !records.empty()) {
        break;
      }
      int status = 0;
      if (::waitpid(pid, &status, WNOHANG) == pid) {
        childExited = true;
        break;
      }
      ::usleep(1000);
    }
    if (!childExited) {
      ::kill(pid, SIGKILL);
      int status = 0;
      ::waitpid(pid, &status, 0);
    }
    const std::string json = dir + "/sigkill.json";
    check(runCli(cli, {input, shots, "--hier", "--top-cell=TOP",
                       "--journal=" + journal, "--resume",
                       "--metrics-json=" + json}) == 0,
          "SIGKILL mid-run: --resume exits 0");
    check(readBytes(shots) == readBytes(hierShots),
          "SIGKILL mid-run: resumed .shots byte-identical");
    check(runCli(cli, {"--verify", json}) == 0,
          "SIGKILL mid-run: passes --verify");
  }

  // --- Drill 10: clean --hier --isolate equivalence ---------------------
  {
    const std::string shots = dir + "/iso_clean.shots";
    const std::string json = dir + "/iso_clean.json";
    check(runCli(cli, {input, shots, "--hier", "--top-cell=TOP",
                       "--isolate", "--jobs=4",
                       "--metrics-json=" + json}) == 0,
          "clean --hier --isolate --jobs=4 exits 0");
    check(readBytes(shots) == readBytes(hierShots),
          "isolate output byte-identical to serial hier");
    check(runCli(cli, {"--verify", json}) == 0,
          "isolate run passes --verify");
    check(fileKinds(shots + ".workers") == kWorkerFileKinds,
          "--hier --isolate workers: logs only");
  }

  // --- Drill 11: shape_seconds_sum counts fractured shapes once --------
  {
    // The cold run fractured 5 cells on one thread for 51 instances;
    // charging every instance its cell's runtime would exceed the wall.
    const double coldSum = manifestNumber(coldJson, "totals",
                                          "shape_seconds_sum");
    const double coldWall = manifestNumber(coldJson, "totals",
                                           "wall_seconds");
    check(coldSum > 0.0 && coldSum <= 1.0 * coldWall,
          "cold: shape_seconds_sum <= threads x wall");
    check(manifestNumber(warmJson, "totals", "shape_seconds_sum") == 0.0,
          "warm: shape_seconds_sum == 0 (nothing fractured)");
  }

  // --- Drill 12: flat runs use the cell cache too -----------------------
  {
    const std::string flatCache = dir + "/flat_cache";
    const std::string coldFlat = dir + "/flat_cold.shots";
    const std::string coldFlatJson = dir + "/flat_cold.json";
    const std::string warmFlat = dir + "/flat_warm.shots";
    const std::string warmFlatJson = dir + "/flat_warm.json";
    check(runCli(cli, {input, coldFlat, "--top-cell=TOP",
                       "--cell-cache=" + flatCache,
                       "--metrics-json=" + coldFlatJson}) == 0,
          "cold flat --cell-cache run exits 0");
    check(manifestNumber(coldFlatJson, "hier", "unique_cells_fractured") ==
                  5.0 &&
              manifestNumber(coldFlatJson, "hier", "cache_misses") == 5.0,
          "cold flat run: one cell per distinct shape (5 of 51)");
    check(manifestNumber(coldFlatJson, "hier", "instantiated_shapes") ==
                  51.0 &&
              manifestNumber(coldFlatJson, "hier",
                             "fracture_work_avoided") == 46.0,
          "cold flat manifest: 51 instantiated, 46 repeats avoided");
    check(runCli(cli, {input, warmFlat, "--top-cell=TOP",
                       "--cell-cache=" + flatCache,
                       "--metrics-json=" + warmFlatJson}) == 0,
          "warm flat --cell-cache run exits 0");
    check(manifestNumber(warmFlatJson, "hier", "unique_cells_fractured") ==
                  0.0 &&
              manifestNumber(warmFlatJson, "hier", "cache_hits") == 5.0 &&
              manifestNumber(warmFlatJson, "hier",
                             "fracture_work_avoided") == 51.0,
          "warm flat run: 5 cache hits, 0 cells fractured");
    check(readBytes(coldFlat) == readBytes(flatShots) &&
              readBytes(warmFlat) == readBytes(flatShots),
          "flat --cell-cache output byte-identical to the flat run");
    check(runCli(cli, {"--verify", warmFlatJson}) == 0,
          "warm flat run passes --verify");
  }

  // --- Drill 13: injected faults address plan-shape ordinals ------------
  {
    // Every drill cell holds one shape, so ordinal 2 is plan cell 2.
    const std::string throwShots = dir + "/throw2.shots";
    check(runCli(cli, {input, throwShots, "--hier", "--top-cell=TOP",
                       "--inject=throw@2"}) == 1,
          "--hier --inject=throw@2 degrades and exits 1");
    const std::string crashShots = dir + "/crash2.shots";
    const std::string crashJson = dir + "/crash2.json";
    std::string log;
    check(runCli(cli,
                 {input, crashShots, "--hier", "--top-cell=TOP",
                  "--isolate", "--jobs=4", "--inject=crash@2",
                  "--metrics-json=" + crashJson},
                 &log) == 5,
          "--hier --isolate --inject=crash@2 exits 5");
    check(log.find("crash-isolated plan-shape ordinal(s): 2\n") !=
                  std::string::npos &&
              manifestNumber(crashJson, "recovery", "crashed_shapes") == 1.0,
          "exactly plan-shape ordinal 2 is crash-isolated");
    check(!readBytes(throwShots).empty() &&
              readBytes(crashShots) == readBytes(throwShots),
          "crash-isolated output == in-process throw@2 output");
  }

  // --- Drill 14: fracture is exact under translation --------------------
  {
    // Two curvilinear ILT cells, each placed at the origin and again in
    // a BLOCK whose grid sits just inside -2^31. A flat run fractures
    // the four shapes at their bbox corners, --hier the two cells;
    // either way each copy gets its cell's shots exactly translated.

    // ilt_flat clip k (bench/e2e/workload_gen.cpp, iltClip).
    auto iltCell = [](const std::string& name, int k) {
      mbf::IltSynthConfig cfg =
          mbf::iltSuiteConfigs()[static_cast<std::size_t>(k % 10)];
      cfg.seed += static_cast<std::uint32_t>(10 * (k / 10));
      mbf::GdsPolygon p;
      p.polygon = mbf::makeIltShape(cfg);
      return mbf::GdsStructure{name, {p}, {}, {}};
    };
    // ILT clips may keep failing pixels (exit 4); never degraded.
    auto completes = [](int rc) { return rc == 0 || rc == 4; };
    const mbf::GdsStructure a = iltCell("ILT_A", 18);
    const mbf::GdsStructure b = iltCell("ILT_B", 5);
    mbf::GdsStructure block{"BLOCK", {}, {{"ILT_A", {0, 0}},
                                          {"ILT_B", {3000, 0}}}, {}};
    // BLOCK's lowest grid pixel lands 1 nm inside -2^31.
    const mbf::Rect boxA = a.polygons.front().polygon.bbox();
    const mbf::Rect boxB = b.polygons.front().polygon.bbox();
    const int low = std::numeric_limits<std::int32_t>::min() +
                    mbf::Problem::gridPad(mbf::FractureParams{}) + 1;
    const mbf::Point at{low - std::min(boxA.x0, boxB.x0 + 3000),
                        low - std::min(boxA.y0, boxB.y0)};
    mbf::GdsStructure top{"CHIP", {}, {{"ILT_A", {0, 0}},
                                       {"ILT_B", {3000, 0}},
                                       {"BLOCK", at}}, {}};
    mbf::GdsLibrary chip;
    chip.structures = {top, block, a, b};
    const std::string path = dir + "/edge_chip.gds";
    check(writeGdsFile(path, chip), "translation: edge_chip.gds written");
    const std::string flat = dir + "/edge_flat.shots";
    const std::string hierOut = dir + "/edge_hier.shots";
    const std::string flatJson = dir + "/edge_flat.json";
    check(completes(runCli(cli, {path, flat, "--top-cell=CHIP",
                                 "--metrics-json=" + flatJson})) &&
              completes(runCli(cli, {path, hierOut, "--hier",
                                     "--top-cell=CHIP"})),
          "translation: flat and --hier runs complete");
    check(!readBytes(flat).empty() && readBytes(flat) == readBytes(hierOut),
          "translation: flat .shots byte-identical to --hier near -2^31");
    check(manifestNumber(flatJson, "hier", "unique_cells_fractured") == 2.0,
          "translation: the flat run fractures 2 distinct shapes of 4");

    const std::string isoFlat = dir + "/flat_iso.shots";
    const std::string isoJson = dir + "/flat_iso.json";
    check(runCli(cli, {input, isoFlat, "--top-cell=TOP", "--isolate",
                       "--jobs=4", "--metrics-json=" + isoJson}) == 0,
          "flat --isolate --jobs=4 over repeats exits 0");
    check(readBytes(isoFlat) == readBytes(flatShots),
          "flat --isolate output byte-identical to the serial flat run");
    check(runCli(cli, {"--verify", isoJson}) == 0,
          "flat --isolate run passes --verify");
    check(fileKinds(isoFlat + ".workers") == kWorkerFileKinds,
          "flat --isolate workers: logs only");
  }

  // --- Drill 15: supervised runs count a shared shape once -------------
  {
    // A and B each hold one distinct shape and the same L at a different
    // spot of their own coordinates; --jobs=2 gives each cell a worker.
    const mbf::GdsPolygon l =
        poly({{0, 0}, {80, 0}, {80, 30}, {30, 30}, {30, 80}, {0, 80}});
    mbf::GdsPolygon lInB = l;
    lInB.polygon.translate({170, 60});
    const mbf::GdsStructure a{
        "A", {l, poly({{200, 10}, {260, 10}, {260, 70}, {200, 70}})}, {}, {}};
    const mbf::GdsStructure b{
        "B", {poly({{0, 0}, {140, 0}, {140, 40}, {0, 40}}), lInB}, {}, {}};
    const mbf::GdsStructure top{
        "TOP", {}, {{"A", {0, 0}}, {"B", {1000, 500}}, {"A", {-800, 900}}},
        {}};
    mbf::GdsLibrary lib;
    lib.structures = {top, a, b};
    const std::string path = dir + "/shared_shape.gds";
    const std::string json = dir + "/shared_shape.json";
    const std::string trace = dir + "/shared_shape.trace.json";
    check(writeGdsFile(path, lib), "shared shape: .gds written");
    check(runCli(cli, {path, dir + "/shared_shape.shots", "--hier",
                       "--isolate", "--jobs=2", "--metrics-json=" + json,
                       "--trace-json=" + trace}) == 0,
          "shared shape: --hier --isolate --jobs=2 exits 0");
    check(manifestNumber(json, "hier", "unique_shapes_fractured") == 3.0 &&
              manifestNumber(json, "recovery", "fresh_shapes") == 3.0,
          "shared shape: supervised manifest counts 3 shapes of 4");
    check(spanCount(trace, "refine") == 3,
          "shared shape: the workers refine 3 shapes, not 4");
  }

  // --- Drill 16: a supervised run reads its input once -----------------
  {
    const std::string poly = dir + "/piped.poly";
    check(writeBytes(poly,
                     "0 0\n80 0\n80 30\n30 30\n30 80\n0 80\n\n"
                     "200 0\n260 0\n260 60\n200 60\n\n"
                     "400 0\n460 0\n460 60\n400 60\n\n"
                     "0 300\n140 300\n140 340\n0 340\n"),
          "piped input: .poly written");
    const std::string fileShots = dir + "/piped_file.shots";
    const std::string pipeShots = dir + "/piped_stdin.shots";
    const int fileExit =
        runCli(cli, {poly, fileShots, "--isolate", "--jobs=2"});
    const int raw = std::system(("cat '" + poly + "' | '" + cli +
                                 "' /dev/stdin '" + pipeShots +
                                 "' --isolate --jobs=2 > /dev/null 2>&1")
                                    .c_str());
    const int pipeExit = raw != -1 && WIFEXITED(raw) ? WEXITSTATUS(raw) : -2;
    check(fileExit == 0 && pipeExit == fileExit,
          "piped input: --isolate exits like the file-input run");
    check(!readBytes(fileShots).empty() &&
              readBytes(pipeShots) == readBytes(fileShots),
          "piped input: --isolate writes the file-input run's bytes");
  }

  // --- Drill 17: a crash costs one distinct shape, not its cell --------
  {
    // TRIO holds three distinct shapes (ordinals 0, 1, 2), placed three
    // times; a crash on ordinal 1 must degrade its three instances only.
    const mbf::GdsStructure trio{
        "TRIO",
        {poly({{0, 0}, {60, 0}, {60, 60}, {0, 60}}),
         poly({{200, 0}, {280, 0}, {280, 30}, {230, 30}, {230, 80},
               {200, 80}}),
         poly({{0, 200}, {140, 200}, {140, 240}, {0, 240}})},
        {}, {}};
    const mbf::GdsStructure top{
        "TOP", {}, {{"TRIO", {0, 0}}, {"TRIO", {5000, 0}}, {"TRIO", {0, 5000}}},
        {}};
    mbf::GdsLibrary lib;
    lib.structures = {top, trio};
    const std::string path = dir + "/trio.gds";
    check(writeGdsFile(path, lib), "trio: .gds written");
    const std::string throwShots = dir + "/trio_throw.shots";
    const std::string throwJson = dir + "/trio_throw.json";
    check(runCli(cli, {path, throwShots, "--hier", "--inject=throw@1",
                       "--metrics-json=" + throwJson}) == 1,
          "trio: --hier --inject=throw@1 degrades and exits 1");
    const std::string crashShots = dir + "/trio_crash.shots";
    const std::string crashJson = dir + "/trio_crash.json";
    std::string log;
    check(runCli(cli,
                 {path, crashShots, "--hier", "--isolate", "--jobs=2",
                  "--inject=crash@1", "--metrics-json=" + crashJson},
                 &log) == 5,
          "trio: --hier --isolate --inject=crash@1 exits 5");
    check(log.find("crash-isolated plan-shape ordinal(s): 1\n") !=
              std::string::npos,
          "trio: exactly plan-shape ordinal 1 is crash-isolated");
    check(!readBytes(throwShots).empty() &&
              readBytes(crashShots) == readBytes(throwShots),
          "trio: crash-isolated output == in-process throw@1 output");
    check(manifestNumber(throwJson, "totals", "degraded_shapes") == 3.0 &&
              manifestNumber(crashJson, "totals", "degraded_shapes") == 3.0,
          "trio: both runs degrade the 3 instances of ordinal 1 only");
  }

  // --- Drill 18: a warm supervised run forks nothing ------------------
  {
    const std::string isoCache = dir + "/iso_cache";
    const std::string coldShots = dir + "/iso_cold.shots";
    const std::string coldIsoJson = dir + "/iso_cold.json";
    check(runCli(cli, {input, coldShots, "--hier", "--top-cell=TOP",
                       "--isolate", "--jobs=4", "--cell-cache=" + isoCache,
                       "--metrics-json=" + coldIsoJson}) == 0,
          "cold --hier --isolate --cell-cache run exits 0");
    check(manifestNumber(coldIsoJson, "hier", "cache_misses") == 5.0 &&
              manifestNumber(coldIsoJson, "hier", "cache_hits") == 0.0,
          "cold supervised run: one miss per unique cell");
    const std::string warmShots = dir + "/iso_warm.shots";
    const std::string warmIsoJson = dir + "/iso_warm.json";
    const std::string warmTrace = dir + "/iso_warm.trace.json";
    check(runCli(cli, {input, warmShots, "--hier", "--top-cell=TOP",
                       "--isolate", "--jobs=4", "--cell-cache=" + isoCache,
                       "--metrics-json=" + warmIsoJson,
                       "--trace-json=" + warmTrace}) == 0,
          "warm --hier --isolate --cell-cache run exits 0");
    check(manifestNumber(warmIsoJson, "hier", "cache_hits") == 5.0 &&
              manifestNumber(warmIsoJson, "hier", "unique_cells_fractured") ==
                  0.0,
          "warm supervised run: 5 cache hits, 0 cells fractured");
    check(spanCount(warmTrace, "worker", false) == 0,
          "warm supervised run forks no worker");
    check(readBytes(coldShots) == readBytes(hierShots) &&
              readBytes(warmShots) == readBytes(hierShots),
          "cold and warm supervised output byte-identical to serial hier");
  }

  // --- Drill 19: SIGKILL the supervising parent -------------------------
  {
    // Twelve ILT cells over two workers take long enough that the
    // parent's journal holds a frame while workers still run. The
    // parent runs in its own process group; this process becomes the
    // subreaper of the orphaned workers, so it can reap them and tell
    // when the group is gone.
    mbf::GdsLibrary lib;
    mbf::GdsStructure top{"TOP", {}, {}, {}};
    for (int i = 0; i < 12; ++i) {
      mbf::IltSynthConfig cfg;
      cfg.seed = 7000 + static_cast<unsigned>(i);
      mbf::GdsPolygon p;
      p.polygon = mbf::makeIltShape(cfg);
      const std::string name = "ILT" + std::to_string(i);
      lib.structures.push_back({name, {p}, {}, {}});
      top.srefs.push_back({name, {i * 4000, 0}});
    }
    lib.structures.push_back(top);
    const std::string path = dir + "/ilt_cells.gds";
    check(writeGdsFile(path, lib), "parent SIGKILL: .gds written");
    const std::string refShots = dir + "/pkill_ref.shots";
    check(runCli(cli, {path, refShots, "--hier", "--nmax=3000"}) == 0,
          "parent SIGKILL: reference --hier run exits 0");

    ::prctl(PR_SET_CHILD_SUBREAPER, 1);
    const std::string journal = dir + "/pkill.jrnl";
    const std::string shots = dir + "/pkill.shots";
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::setpgid(0, 0);
      const int fd = ::open("/dev/null", O_WRONLY);
      if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
        ::close(fd);
      }
      ::execl(cli.c_str(), cli.c_str(), path.c_str(), shots.c_str(),
              "--hier", "--isolate", "--jobs=2", "--nmax=3000",
              ("--journal=" + journal).c_str(), static_cast<char*>(nullptr));
      std::_Exit(127);
    }
    ::setpgid(pid, pid);
    bool parentExited = false;
    for (int tries = 0; tries < 20000; ++tries) {
      std::string meta;
      std::vector<std::string> records;
      if (mbf::recoverJournal(journal, meta, records).ok() &&
          !records.empty()) {
        break;
      }
      int status = 0;
      if (::waitpid(pid, &status, WNOHANG) == pid) {
        parentExited = true;
        break;
      }
      ::usleep(1000);
    }
    check(!parentExited,
          "parent SIGKILL: the journal holds a frame while the run is live");
    if (!parentExited) {
      ::kill(pid, SIGKILL);
      int status = 0;
      ::waitpid(pid, &status, 0);
    }
    // The parent is reaped: whoever is left in its group is a worker
    // that was still fracturing when the parent journaled its frame.
    check(::kill(-pid, 0) == 0,
          "parent SIGKILL: workers were still running at the kill");
    bool groupGone = false;
    for (int tries = 0; tries < 3000 && !groupGone; ++tries) {
      int status = 0;
      while (::waitpid(-pid, &status, WNOHANG) > 0) {
      }
      groupGone = ::kill(-pid, 0) != 0 && errno == ESRCH;
      if (!groupGone) ::usleep(10000);
    }
    check(groupGone,
          "parent SIGKILL: no process of its group remains within 30 s");
    if (!groupGone) ::kill(-pid, SIGKILL);
    ::prctl(PR_SET_CHILD_SUBREAPER, 0);

    const std::string json = dir + "/pkill.json";
    check(runCli(cli, {path, shots, "--hier", "--isolate", "--jobs=2",
                       "--nmax=3000", "--journal=" + journal, "--resume",
                       "--metrics-json=" + json}) == 0,
          "parent SIGKILL: --resume --isolate exits 0");
    check(!readBytes(refShots).empty() &&
              readBytes(shots) == readBytes(refShots),
          "parent SIGKILL: resumed .shots byte-identical");
    check(runCli(cli, {"--verify", json}) == 0,
          "parent SIGKILL: resumed run passes --verify");
  }

  // --- Drill 20: the manifest grows with plan cells, not instances ------
  {
    mbf::GdsLibrary doubled = drillLib();
    doubled.structures.back().arefs[0].columns *= 2;  // C0: 12 -> 24
    const std::string arefCache = dir + "/aref_cache";
    std::string manifests[2];
    for (int k = 1; k <= 2; ++k) {
      const std::string stem = dir + "/aref" + std::to_string(k);
      check(writeGdsFile(stem + ".gds", k == 1 ? drillLib() : doubled),
            "aref doubling: layout " + std::to_string(k) + " written");
      if (k == 1) {
        // Fill the cache, so both measured runs read every claim from it.
        check(runCli(cli, {stem + ".gds", stem + "_cold.shots", "--hier",
                           "--top-cell=TOP", "--cell-cache=" + arefCache}) ==
                  0,
              "aref doubling: cache filled");
      }
      check(runCli(cli, {stem + ".gds", stem + ".shots", "--hier",
                         "--top-cell=TOP", "--cell-cache=" + arefCache,
                         "--metrics-json=" + stem + ".json"}) == 0,
            "aref doubling: warm run " + std::to_string(k) + " exits 0");
      manifests[k - 1] = readBytes(stem + ".json");
      check(runCli(cli, {"--verify", stem + ".json"}) == 0,
            "aref doubling: run " + std::to_string(k) + " passes --verify");
    }
    check(manifestNumber(dir + "/aref1.json", "input", "shapes") == 51.0 &&
              manifestNumber(dir + "/aref2.json", "input", "shapes") == 63.0,
          "aref doubling: 51 -> 63 instantiated shapes");
    // Line by line, the two manifests differ only in digits (counts,
    // totals, hashes, the wall clock, C0's instance count): no line is
    // added per instance.
    auto lines = [](const std::string& text) {
      std::vector<std::string> out;
      std::istringstream is(text);
      for (std::string line; std::getline(is, line);) {
        std::erase_if(line, [](char c) {
          return std::isdigit(static_cast<unsigned char>(c)) ||
                 (c >= 'a' && c <= 'f') || c == '.' || c == '-' || c == '+';
        });
        out.push_back(line);
      }
      return out;
    };
    check(!manifests[0].empty() && lines(manifests[0]) == lines(manifests[1]),
          "aref doubling: manifests differ only in count digits");
    check(manifests[1].find("\"instances\": 24") != std::string::npos &&
              manifests[0].find("\"instances\": 12") != std::string::npos,
          "aref doubling: C0 lists 12, then 24 instances");
  }

  // --- Drill 21: budgets and injected faults verify --------------------
  // The plan fingerprint leaves out the execution knobs cell cache keys
  // commit to (budgets, the fault injector), which --verify cannot
  // reconstruct.
  {
    const struct {
      const char* tag;
      std::vector<std::string> flags;
      int exit;
    } runs[] = {
        {"budget", {"--hier", "--top-cell=TOP", "--budget-ms=100000"}, 0},
        {"budget_iso",
         {"--top-cell=TOP", "--isolate", "--jobs=2", "--budget-ms=100000"},
         0},
        {"throw1", {"--hier", "--top-cell=TOP", "--inject=throw@1"}, 1},
    };
    for (const auto& run : runs) {
      const std::string stem = dir + "/knob_" + run.tag;
      std::vector<std::string> args = {input, stem + ".shots",
                                       "--metrics-json=" + stem + ".json"};
      args.insert(args.end(), run.flags.begin(), run.flags.end());
      check(runCli(cli, args) == run.exit,
            std::string(run.tag) + ": run exits " + std::to_string(run.exit));
      check(runCli(cli, {"--verify", stem + ".json"}) == 0,
            std::string(run.tag) + ": run passes --verify");
    }
  }

  // --- Drill 22: a cell claim speaks for every instance -----------------
  {
    const std::string json = dir + "/lie.json";
    check(runCli(cli, {input, dir + "/lie.shots", "--hier", "--top-cell=TOP",
                       "--metrics-json=" + json}) == 0,
          "cell claim lie: run exits 0");
    std::string text = readBytes(json);
    const std::string key = "\"fail_on\": ";
    const std::size_t at = text.find(key, text.find("\"cells\": ["));
    const std::size_t begin = at == std::string::npos ? 0 : at + key.size();
    const std::size_t end = text.find_first_of(",\n", begin);
    check(at != std::string::npos && end != std::string::npos,
          "cell claim lie: cells[0].shapes[0].fail_on found");
    if (at != std::string::npos && end != std::string::npos) {
      const long value = std::stol(text.substr(begin, end - begin));
      text.replace(begin, end - begin, std::to_string(value + 7));
      check(writeBytes(json, text) &&
                mbf::writeHashSidecar(json, mbf::sha256Hex(text)).ok(),
            "cell claim lie: applied and the sidecar re-sealed");
    }
    check(manifestNumber(json, "input", "shapes") == 51.0,
          "cell claim lie: manifest still parses");
    std::string log;
    check(runCli(cli, {"--verify", json}, &log) == 6,
          "cell claim lie: --verify exits 6");
    // Plan cell 0 is C4, whose ten SREFs TOP expands first: instances
    // 0-9.
    mbf::JsonValue doc;
    const mbf::JsonValue* cells =
        mbf::parseJson(text, doc).ok() ? doc.find("cells") : nullptr;
    check(cells != nullptr && cells->isArray() && !cells->items.empty() &&
              cells->items[0].find("instances")->number == 10.0,
          "cell claim lie: plan cell 0 has 10 instances");
    std::set<int> named;
    int findings = 0;
    std::istringstream is(log);
    for (std::string line; std::getline(is, line);) {
      if (line.rfind("shape ", 0) != 0) continue;
      ++findings;
      named.insert(std::atoi(line.c_str() + 6));
    }
    check(findings == 10 && named.size() == 10 && *named.begin() == 0 &&
              *named.rbegin() == 9,
          "cell claim lie: one finding per instance of the cell (" +
              std::to_string(findings) + ")");
  }

  return drill::finish("hier drill");
}
