// Tests for GDSII hierarchy: multiple structures, SREF round trips,
// flattening with translation, cycle safety.
#include <gtest/gtest.h>

#include <sstream>

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
