// Corpus replay: feeds a set of malformed / degenerate input files
// through the real mbf_cli binary and checks that every one of them is
// answered with the documented exit code -- never a crash, never a
// silent success. Run as:
//
//   mbf_corpus_replay <path-to-mbf_cli>
//
// Standalone driver (no gtest) because it exercises the CLI process
// boundary, not library internals.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "drill_util.h"
#include "io/gdsii.h"

namespace {

struct Case {
  std::string name;
  std::string file;
  std::string extraArgs;
  int wantExit = 0;
};

bool writeFile(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(os);
}

std::string gdsBytes(const mbf::GdsLibrary& lib) {
  std::stringstream ss;
  mbf::writeGds(ss, lib);
  return ss.str();
}

mbf::GdsPolygon rect(int x0, int width, int height) {
  mbf::GdsPolygon gp;
  gp.polygon = mbf::Polygon(
      {{x0, 0}, {x0 + width, 0}, {x0 + width, height}, {x0, height}});
  return gp;
}

/// Runs one case; a signal death (a crash) reads as exit -2.
int runCase(const std::string& cli, const Case& c, const std::string& outDir) {
  std::vector<std::string> args = {c.file, outDir + "/" + c.name + ".shots"};
  std::istringstream extra(c.extraArgs);
  for (std::string arg; extra >> arg;) args.push_back(arg);
  return drill::runCli(cli, args);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: mbf_corpus_replay <path-to-mbf_cli>\n";
    return 2;
  }
  const std::string cli = argv[1];
  const std::string dir = "corpus_replay_tmp";
  std::system(("mkdir -p '" + dir + "'").c_str());

  mbf::GdsLibrary valid;
  valid.structures = {mbf::GdsStructure{"TOP", {rect(0, 100, 60)}, {}, {}}};
  const std::string gds = gdsBytes(valid);
  std::vector<Case> cases;

  // --- .poly corpus -----------------------------------------------------
  writeFile(dir + "/comments_only.poly", "# nothing here\n# still nothing\n");
  cases.push_back({"comments_only", dir + "/comments_only.poly", "", 3});

  writeFile(dir + "/two_point_ring.poly", "0 0\n10 0\n");
  cases.push_back({"two_point_ring", dir + "/two_point_ring.poly", "", 3});

  writeFile(dir + "/bad_lines_only.poly", "banana\napple pie crust\nx y\n");
  cases.push_back({"bad_lines_only", dir + "/bad_lines_only.poly", "", 3});

  // Symmetric bowtie: zero signed area, sanitation drops the ring and
  // the shape degrades to an empty solution -> exit 1.
  writeFile(dir + "/bowtie.poly", "0 0\n100 100\n100 0\n0 100\n");
  cases.push_back({"bowtie", dir + "/bowtie.poly", "", 1});

  writeFile(dir + "/duplicate_ring.poly", "5 5\n5 5\n5 5\n5 5\n");
  cases.push_back({"duplicate_ring", dir + "/duplicate_ring.poly", "", 1});

  // Strict mode turns that degradation into a hard failure.
  cases.push_back({"bowtie_strict", dir + "/bowtie.poly", "--strict", 4});

  // --- .gds corpus ------------------------------------------------------
  writeFile(dir + "/garbage.gds", "this is not a gds stream at all......");
  cases.push_back({"garbage", dir + "/garbage.gds", "", 3});

  writeFile(dir + "/truncated.gds", gds.substr(0, gds.size() / 2));
  cases.push_back({"truncated", dir + "/truncated.gds", "", 3});

  writeFile(dir + "/short_record.gds",
            std::string("\x00\x06\x00\x02\x02\x58", 6) +
                std::string("\x00\x02\x00\x02", 4));
  cases.push_back({"short_record", dir + "/short_record.gds", "", 3});

  writeFile(dir + "/overrun.gds",
            std::string("\x00\x06\x00\x02\x02\x58", 6) +
                std::string("\x40\x00\x10\x03", 4) +
                std::string(8, '\x00'));
  cases.push_back({"overrun", dir + "/overrun.gds", "", 3});

  // A legal 2-column AREF whose pitch spans more than half the int32
  // range (placements at x = -2147482648 and 0): read exactly, never
  // wrapped to a pitch of -1000.
  {
    mbf::GdsAref aref;
    aref.structName = "CELL";
    aref.origin = {-2147482648, 0};
    aref.columns = 2;
    aref.columnPitch = {2147482648, 0};
    mbf::GdsLibrary lib;
    lib.structures = {mbf::GdsStructure{"TOP", {}, {}, {aref}},
                      mbf::GdsStructure{"CELL", {rect(0, 60, 60)}, {}, {}}};
    writeFile(dir + "/wide_aref.gds", gdsBytes(lib));
    cases.push_back({"wide_aref", dir + "/wide_aref.gds", "", 0});
    cases.push_back({"wide_aref_hier", dir + "/wide_aref.gds", "--hier", 0});
  }

  // An AREF at COLROW 0 x 1 beside a square of TOP's own: GDSII counts
  // lie in 1..32767, and a zero must not parse into a layout whose array
  // places nothing while the square still fractures.
  {
    mbf::GdsAref aref;
    aref.structName = "CELL";
    aref.columnPitch = {100, 0};
    aref.rowPitch = {0, 100};
    mbf::GdsLibrary lib;
    lib.structures = {
        mbf::GdsStructure{"TOP", {rect(500, 60, 60)}, {}, {aref}},
        mbf::GdsStructure{"CELL", {rect(0, 60, 60)}, {}, {}}};
    std::string bytes = gdsBytes(lib);
    // The COLROW record: length 8, type 0x1302, then columns and rows.
    const std::size_t colrow =
        bytes.find(std::string("\x00\x08\x13\x02", 4));
    bytes[colrow + 5] = '\0';  // columns 1 -> 0
    writeFile(dir + "/colrow_zero.gds", bytes);
    cases.push_back({"colrow_zero", dir + "/colrow_zero.gds", "", 3});
    cases.push_back(
        {"colrow_zero_hier", dir + "/colrow_zero.gds", "--hier", 3});
  }

  // Two structures named CELL: GDSII names are unique, and the second
  // one's two squares must not vanish without a word.
  {
    mbf::GdsLibrary lib;
    lib.structures = {
        mbf::GdsStructure{"TOP", {}, {{"CELL", {0, 0}}}, {}},
        mbf::GdsStructure{"CELL", {rect(0, 60, 60)}, {}, {}},
        mbf::GdsStructure{
            "CELL", {rect(0, 60, 60), rect(200, 60, 60)}, {}, {}}};
    writeFile(dir + "/duplicate_name.gds", gdsBytes(lib));
    cases.push_back({"duplicate_name", dir + "/duplicate_name.gds", "", 3});
    cases.push_back(
        {"duplicate_name_hier", dir + "/duplicate_name.gds", "--hier", 3});
  }

  // --- bad arguments on a valid file ------------------------------------
  writeFile(dir + "/valid.poly", "0 0\n80 0\n80 50\n0 50\n");
  cases.push_back({"neg_gamma", dir + "/valid.poly", "--gamma=-2", 2});
  cases.push_back({"bad_eta", dir + "/valid.poly", "--eta=1.5", 2});

  // Forked --isolate workers have no command line: these worker flags
  // are unknown arguments. The first spells a complete worker run.
  cases.push_back({"worker", dir + "/valid.poly",
                   "--worker --cell-range=0:1 --journal=" + dir +
                       "/worker.jrn",
                   2});
  cases.push_back({"cell_range", dir + "/valid.poly", "--cell-range=0:1", 2});
  cases.push_back({"degrade_only", dir + "/valid.poly", "--degrade-only", 2});
  cases.push_back({"lth_bits", dir + "/valid.poly",
                   "--lth-bits=402d51eb851eb852", 2});
  cases.push_back({"trace_raw", dir + "/valid.poly",
                   "--trace-raw=" + dir + "/spans", 2});

  // --inject is the only fault flag: the injector's seeded and
  // every-nth rules are library-only.
  cases.push_back({"inject_seed", dir + "/valid.poly", "--inject-seed=1", 2});
  cases.push_back(
      {"inject_every", dir + "/valid.poly", "--inject-every=throw@1", 2});

  // And the happy path, to prove the harness itself works.
  cases.push_back({"valid", dir + "/valid.poly", "", 0});

  for (const Case& c : cases) {
    const int got = runCase(cli, c, dir);
    drill::check(got == c.wantExit, c.name + ": exit " + std::to_string(got) +
                                        ", want " +
                                        std::to_string(c.wantExit));
  }
  return drill::finish("corpus replay");
}
