// Tests for GDSII hierarchy: multiple structures, SREF/AREF round
// trips, AREF counts and corners GDSII cannot store (refused on read and
// on write), flattening with translation, and the defective hierarchies
// the one structure walk refuses alike for the flat reading and the
// plan.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <tuple>
#include <utility>

#include "io/gdsii.h"
#include "mdp/hierarchy.h"

namespace mbf {
namespace {

GdsPolygon squarePoly(int size) {
  GdsPolygon p;
  p.polygon = Polygon({{0, 0}, {size, 0}, {size, size}, {0, size}});
  return p;
}

GdsLibrary hierLib() {
  GdsLibrary lib;
  GdsStructure cell;
  cell.name = "CELL";
  cell.polygons = {squarePoly(20)};
  GdsStructure top;
  top.name = "TOP";
  top.polygons = {squarePoly(5)};
  top.srefs = {{"CELL", {100, 0}}, {"CELL", {0, 100}}, {"CELL", {100, 100}}};
  lib.structures = {top, cell};
  return lib;
}

/// flattenGdsChecked from `top` (empty = the detected root), which must
/// succeed.
std::vector<GdsPolygon> flatten(const GdsLibrary& lib,
                                const std::string& top = {}) {
  std::vector<GdsPolygon> out;
  const Status st = flattenGdsChecked(lib, top, out);
  EXPECT_TRUE(st.ok()) << st.str();
  return out;
}

TEST(GdsiiHierTest, SrefRoundTrip) {
  const GdsLibrary lib = hierLib();
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  writeGds(ss, lib);
  GdsLibrary back;
  ASSERT_TRUE(parseGds(ss, back).ok());
  ASSERT_EQ(back.structures.size(), 2u);
  const GdsStructure* top = back.findStructure("TOP");
  ASSERT_NE(top, nullptr);
  ASSERT_EQ(top->srefs.size(), 3u);
  EXPECT_EQ(top->srefs[0].structName, "CELL");
  EXPECT_EQ(top->srefs[0].offset, Point(100, 0));
  EXPECT_EQ(top->srefs[2].offset, Point(100, 100));
}

TEST(GdsiiHierTest, FlattenTranslatesInstances) {
  const std::vector<GdsPolygon> flat = flatten(hierLib());
  // 1 own polygon + 3 instances of CELL.
  ASSERT_EQ(flat.size(), 4u);
  // Instance at (100, 0): bbox shifted.
  bool found = false;
  for (const GdsPolygon& p : flat) {
    if (p.polygon.bbox() == Rect(100, 0, 120, 20)) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(GdsiiHierTest, FlattenByName) {
  const std::vector<GdsPolygon> flat = flatten(hierLib(), "CELL");
  ASSERT_EQ(flat.size(), 1u);
  EXPECT_EQ(flat[0].polygon.bbox(), Rect(0, 0, 20, 20));
}

TEST(GdsiiHierTest, NestedReferences) {
  GdsLibrary lib;
  GdsStructure leaf{"LEAF", {squarePoly(10)}, {}, {}};
  GdsStructure mid{"MID", {}, {{"LEAF", {50, 0}}, {"LEAF", {0, 50}}}, {}};
  GdsStructure top{"TOP", {}, {{"MID", {1000, 1000}}}, {}};
  lib.structures = {top, mid, leaf};
  const std::vector<GdsPolygon> flat = flatten(lib);
  ASSERT_EQ(flat.size(), 2u);
  EXPECT_EQ(flat[0].polygon.bbox(), Rect(1050, 1000, 1060, 1010));
  EXPECT_EQ(flat[1].polygon.bbox(), Rect(1000, 1050, 1010, 1060));
}

TEST(GdsiiHierTest, CycleIsAnError) {
  GdsLibrary lib;
  GdsStructure a{"A", {squarePoly(5)}, {{"B", {10, 0}}}, {}};
  GdsStructure b{"B", {squarePoly(5)}, {{"A", {10, 0}}}, {}};
  lib.structures = {a, b};
  // Checked flatten: the cycle is a named diagnostic, not silent
  // truncation.
  std::vector<GdsPolygon> flat;
  const Status st = flattenGdsChecked(lib, "A", flat);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("cycle"), std::string::npos) << st.message();
  EXPECT_NE(st.message().find("A -> B -> A"), std::string::npos)
      << st.message();
  // With no explicit top there is no root at all (every structure is
  // referenced): detection reports the cycle up front.
  std::string top;
  EXPECT_FALSE(findGdsTopStructure(lib, top).ok());
}

TEST(GdsiiHierTest, TopStructureDetection) {
  // Real GDS files list the top cell last; detection must not rely on
  // structure order.
  GdsLibrary lib = hierLib();
  std::swap(lib.structures[0], lib.structures[1]);  // CELL first, TOP last
  std::string top;
  ASSERT_TRUE(findGdsTopStructure(lib, top).ok());
  EXPECT_EQ(top, "TOP");
  // An empty top flattens the detected root, not structures.front().
  EXPECT_EQ(flatten(lib).size(), 4u);

  // Two unreferenced structures: ambiguous, names both candidates.
  lib.structures.push_back(GdsStructure{"TOP2", {squarePoly(5)}, {}, {}});
  const Status st = findGdsTopStructure(lib, top);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("TOP2"), std::string::npos) << st.message();
}

TEST(GdsiiHierTest, MissingReferenceIgnored) {
  GdsLibrary lib;
  GdsStructure top{"TOP", {squarePoly(5)}, {{"GHOST", {10, 10}}}, {}};
  lib.structures = {top};
  EXPECT_EQ(flatten(lib).size(), 1u);
}

TEST(GdsiiHierTest, ArefRoundTripAndFlatten) {
  GdsLibrary lib;
  GdsStructure cell{"CELL", {squarePoly(10)}, {}, {}};
  GdsStructure top{"TOP", {}, {}, {}};
  GdsAref aref;
  aref.structName = "CELL";
  aref.origin = {100, 200};
  aref.columns = 3;
  aref.rows = 2;
  aref.columnPitch = {40, 0};
  aref.rowPitch = {0, 50};
  top.arefs = {aref};
  lib.structures = {top, cell};

  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  writeGds(ss, lib);
  GdsLibrary back;
  ASSERT_TRUE(parseGds(ss, back).ok());
  const GdsStructure* t = back.findStructure("TOP");
  ASSERT_NE(t, nullptr);
  ASSERT_EQ(t->arefs.size(), 1u);
  EXPECT_EQ(t->arefs[0].columns, 3);
  EXPECT_EQ(t->arefs[0].rows, 2);
  EXPECT_EQ(t->arefs[0].origin, Point(100, 200));
  EXPECT_EQ(t->arefs[0].columnPitch, Point(40, 0));
  EXPECT_EQ(t->arefs[0].rowPitch, Point(0, 50));

  const std::vector<GdsPolygon> flat = flatten(back);
  ASSERT_EQ(flat.size(), 6u);  // 3 x 2 array
  bool corner = false;
  for (const GdsPolygon& p : flat) {
    if (p.polygon.bbox() == Rect(180, 250, 190, 260)) corner = true;
  }
  EXPECT_TRUE(corner);  // last column, last row
}

/// TOP placing CELL (a 60 nm square) through one 2-column AREF whose
/// pitch is more than half the int32 range: the placements sit at
/// x = -2147482648 and x = 0, and the XY column corner at 2147482648.
GdsLibrary wideArefLib() {
  GdsAref aref;
  aref.structName = "CELL";
  aref.origin = {-2147482648, 0};
  aref.columns = 2;
  aref.columnPitch = {2147482648, 0};
  GdsLibrary lib;
  lib.structures = {GdsStructure{"TOP", {}, {}, {aref}},
                    GdsStructure{"CELL", {squarePoly(60)}, {}, {}}};
  return lib;
}

// Regression (int32 overflow): the parser took corner - origin in int32,
// which wrapped this legal pitch to -1000 and placed the second square
// near -2^31.
TEST(GdsiiHierTest, WideArefRoundTripsExactly) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  writeGds(ss, wideArefLib());
  GdsLibrary back;
  const Status parsed = parseGds(ss, back);
  ASSERT_TRUE(parsed.ok()) << parsed.str();
  const GdsAref& aref = back.findStructure("TOP")->arefs.at(0);
  EXPECT_EQ(aref.origin, Point(-2147482648, 0));
  EXPECT_EQ(aref.columnPitch, Point(2147482648, 0));
  EXPECT_EQ(aref.rowPitch, Point(0, 0));
  const std::vector<GdsPolygon> flat = flatten(back);
  ASSERT_EQ(flat.size(), 2u);
  EXPECT_EQ(flat[0].polygon.bbox(), Rect(-2147482648, 0, -2147482588, 60));
  EXPECT_EQ(flat[1].polygon.bbox(), Rect(0, 0, 60, 60));
}

// GDSII defines an AREF's XY corner points as origin + count * pitch. A
// corner off that lattice, or one whose pitch leaves int32, is a parse
// error naming AREF at the XY record, never a truncated pitch.
TEST(GdsiiHierTest, ArefCornerOffItsPitchLatticeIsParseError) {
  std::stringstream ok(std::ios::in | std::ios::out | std::ios::binary);
  writeGds(ok, wideArefLib());
  // The AREF's XY record: length 28 (three points), type 0x1003.
  const std::string bytes = ok.str();
  const std::size_t xy = bytes.find(std::string("\x00\x1c\x10\x03", 4));
  ASSERT_NE(xy, std::string::npos);
  auto putI32 = [](std::string& b, std::size_t at, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      b[at + static_cast<std::size_t>(i)] =
          static_cast<char>(v >> (24 - 8 * i));
    }
  };
  // {origin x, column corner x, columns}: an odd displacement over 2
  // columns, and a 1-column AREF whose one pitch spans 2^32 - 1.
  for (const auto& [origin, corner, columns] :
       {std::tuple{0u, 121u, 2}, std::tuple{0x80000000u, 0x7fffffffu, 1}}) {
    std::string patched = bytes;
    putI32(patched, xy + 4, origin);
    putI32(patched, xy + 12, corner);
    // COLROW sits just before the XY record: 4-byte header, 2-byte counts.
    patched[xy - 3] = static_cast<char>(columns);
    std::stringstream is(patched, std::ios::in | std::ios::binary);
    GdsLibrary back;
    const Status st = parseGds(is, back);
    EXPECT_EQ(st.code(), StatusCode::kParseError) << st.str();
    EXPECT_NE(st.message().find("AREF column corner"), std::string::npos)
        << st.message();
    EXPECT_EQ(st.byteOffset(), static_cast<std::int64_t>(xy));
  }
}

/// TOP placing CELL (a 60 nm square) through one 1 x 1 AREF.
GdsLibrary singleArefLib() {
  GdsAref aref;
  aref.structName = "CELL";
  aref.columnPitch = {100, 0};
  aref.rowPitch = {0, 100};
  GdsLibrary lib;
  lib.structures = {GdsStructure{"TOP", {}, {}, {aref}},
                    GdsStructure{"CELL", {squarePoly(60)}, {}, {}}};
  return lib;
}

// GDSII counts an AREF's columns and rows in 1..32767 (2-byte signed).
// A COLROW outside that range, which used to place nothing without a
// word, is a parse error naming COLROW at its record.
TEST(GdsiiHierTest, ColrowOutsideItsRangeIsParseError) {
  std::stringstream ok(std::ios::in | std::ios::out | std::ios::binary);
  writeGds(ok, singleArefLib());
  // The COLROW record: length 8, type 0x1302.
  const std::string bytes = ok.str();
  const std::size_t colrow = bytes.find(std::string("\x00\x08\x13\x02", 4));
  ASSERT_NE(colrow, std::string::npos);
  for (const auto& [columns, rows] :
       {std::pair{0, 1}, std::pair{1, 0}, std::pair{0x8000, 1},
        std::pair{1, 0xffff}}) {
    std::string patched = bytes;
    patched[colrow + 4] = static_cast<char>(columns >> 8);
    patched[colrow + 5] = static_cast<char>(columns);
    patched[colrow + 6] = static_cast<char>(rows >> 8);
    patched[colrow + 7] = static_cast<char>(rows);
    std::stringstream is(patched, std::ios::in | std::ios::binary);
    GdsLibrary back;
    const Status st = parseGds(is, back);
    EXPECT_EQ(st.code(), StatusCode::kParseError) << st.str();
    EXPECT_NE(st.message().find("COLROW"), std::string::npos)
        << st.message();
    EXPECT_EQ(st.byteOffset(), static_cast<std::int64_t>(colrow));
  }
}

// An AREF GDSII cannot store — a count outside 1..32767, or a corner
// origin + count * pitch outside int32 — fails the write instead of
// wrapping into a different placement.
TEST(GdsiiHierTest, ArefGdsiiCannotStoreFailsTheWrite) {
  const std::string path = testing::TempDir() + "unstorable_aref.gds";
  std::remove(path.c_str());
  auto unstorable = [](auto&& mutate) {
    GdsLibrary lib = singleArefLib();
    mutate(lib.structures[0].arefs[0]);
    return lib;
  };
  for (const GdsLibrary& lib :
       {unstorable([](GdsAref& a) {
          a.columns = 2;
          a.columnPitch = {1500000000, 0};  // corner x = 3e9
        }),
        unstorable([](GdsAref& a) { a.columns = 0; }),
        unstorable([](GdsAref& a) { a.rows = 32768; })}) {
    std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
    writeGds(ss, lib);
    EXPECT_TRUE(ss.fail());
    EXPECT_FALSE(saveGds(path, lib));
    EXPECT_FALSE(std::ifstream(path).good()) << "nothing is published";
  }
  // The widest storable AREF still writes.
  std::stringstream wide(std::ios::in | std::ios::out | std::ios::binary);
  writeGds(wide, wideArefLib());
  EXPECT_TRUE(wide.good());
}

// The flat reading (flattenGdsChecked) and the plan (planGdsHierarchy)
// share one structure walk: every defective hierarchy gives one
// StatusCode and one diagnostic through both, up to the plan's grid-halo
// clause, and every sound one places the same geometry.
TEST(GdsiiHierTest, DefectiveHierarchiesReadAlikeFlatAndPlanned) {
  auto chainLib = [](int depth) {
    GdsLibrary lib;
    for (int i = 0; i < depth; ++i) {
      GdsStructure s{"LEVEL" + std::to_string(i), {}, {}, {}};
      if (i + 1 < depth) {
        s.srefs.push_back({"LEVEL" + std::to_string(i + 1), {10, 0}});
      } else {
        s.polygons.push_back(squarePoly(40));
      }
      lib.structures.push_back(std::move(s));
    }
    return lib;
  };
  auto arrayLib = [](Point origin, int columns, int rows, Point pitch) {
    GdsAref aref;
    aref.structName = "CELL";
    aref.origin = origin;
    aref.columns = columns;
    aref.rows = rows;
    aref.columnPitch = pitch;
    aref.rowPitch = {0, 50};
    GdsLibrary lib;
    lib.structures = {GdsStructure{"TOP", {}, {}, {aref}},
                      GdsStructure{"CELL", {squarePoly(40)}, {}, {}}};
    return lib;
  };
  GdsLibrary cycle;
  cycle.structures = {GdsStructure{"A", {squarePoly(5)}, {{"B", {10, 0}}}, {}},
                      GdsStructure{"B", {squarePoly(5)}, {{"A", {10, 0}}}, {}}};
  GdsLibrary range;
  range.structures = {GdsStructure{"TOP", {}, {{"CELL", {2147483600, 0}}}, {}},
                      GdsStructure{"CELL", {squarePoly(80)}, {}, {}}};
  GdsAref ghosts;
  ghosts.structName = "GHOST";
  GdsLibrary missing;
  missing.structures = {GdsStructure{
      "TOP", {squarePoly(5)}, {{"GHOST", {10, 10}}}, {ghosts}}};
  struct Case {
    const char* name;
    GdsLibrary lib;
    std::string top;
    StatusCode code;
    std::string text;  ///< in the diagnostic (the cell chain if any)
  };
  const Case cases[] = {
      {"cycle", cycle, "A", StatusCode::kInvalidArgument,
       "reference cycle in GDS hierarchy: A -> B -> A"},
      {"over-deep chain", chainLib(kGdsMaxDepth + 2), "",
       StatusCode::kInvalidArgument,
       "deeper than " + std::to_string(kGdsMaxDepth) +
           " levels at cell chain LEVEL0 -> LEVEL1 -> "},
      {"out-of-range placement", range, "", StatusCode::kInvalidArgument,
       "placement of cell 'CELL' at offset (2147483600, 0) leaves the "
       "32-bit coordinate space"},
      {"AREF over the 2^22 cap", arrayLib({0, 0}, 2049, 2048, {50, 0}), "",
       StatusCode::kInvalidArgument,
       "AREF of cell 'CELL' declares 2049 x 2048 instances (cap 2^22) in "
       "cell 'TOP'"},
      {"int64 AREF arithmetic",
       arrayLib({-2000000000, 0}, 3, 1, {1200000000, 0}), "",
       StatusCode::kOk, ""},
      {"missing reference", missing, "", StatusCode::kOk, ""},
  };
  for (const Case& c : cases) {
    std::vector<GdsPolygon> flat;
    const Status flatSt = flattenGdsChecked(c.lib, c.top, flat);
    HierPlan plan;
    const Status planSt = planGdsHierarchy(c.lib, BatchConfig{}, c.top, plan);
    EXPECT_EQ(flatSt.code(), c.code) << c.name << ": " << flatSt.str();
    EXPECT_EQ(planSt.code(), c.code) << c.name << ": " << planSt.str();
    EXPECT_NE(flatSt.message().find(c.text), std::string::npos)
        << c.name << ": " << flatSt.message();
    std::string planned = planSt.message();
    const std::size_t halo = planned.find(" with its ");
    if (halo != std::string::npos) {
      planned.erase(halo, planned.find(" (chain ") - halo);
    }
    EXPECT_EQ(flatSt.message(), planned) << c.name;
    if (c.code != StatusCode::kOk) continue;
    const std::vector<LayoutShape> placed = planInstanceShapes(plan);
    ASSERT_EQ(placed.size(), flat.size()) << c.name;
    for (std::size_t i = 0; i < flat.size(); ++i) {
      EXPECT_EQ(placed[i].rings.at(0).vertices(), flat[i].polygon.vertices())
          << c.name << ", polygon " << i;
    }
  }
}

TEST(GdsiiHierTest, ArefHierarchicalFracture) {
  GdsLibrary lib;
  GdsPolygon square;
  square.polygon = Polygon({{0, 0}, {40, 0}, {40, 40}, {0, 40}});
  GdsStructure cell{"CELL", {square}, {}, {}};
  GdsAref aref;
  aref.structName = "CELL";
  aref.columns = 4;
  aref.rows = 3;
  aref.columnPitch = {100, 0};
  aref.rowPitch = {0, 100};
  GdsStructure top{"TOP", {}, {}, {aref}};
  lib.structures = {top, cell};

  HierarchicalResult r;
  ASSERT_TRUE(
      fractureGdsHierarchical(lib, BatchConfig{}, HierOptions{}, r).ok());
  EXPECT_EQ(r.uniqueShapesFractured, 1);
  EXPECT_EQ(r.instantiatedShapes(), 12);
  EXPECT_EQ(r.flatShotCount(), 12);  // one shot per isolated square
}

TEST(GdsiiHierTest, FindStructure) {
  GdsLibrary lib = hierLib();
  EXPECT_NE(lib.findStructure("CELL"), nullptr);
  EXPECT_EQ(lib.findStructure("NOPE"), nullptr);
  const GdsLibrary& constLib = lib;
  EXPECT_NE(constLib.findStructure("TOP"), nullptr);
}

}  // namespace
}  // namespace mbf
