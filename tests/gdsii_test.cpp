// Tests for the GDSII subset: record encoding, 8-byte real round trip,
// polygon round trips and robustness against unknown records.
#include <gtest/gtest.h>

#include <sstream>

#include "io/gdsii.h"
#include "mdp/hierarchy.h"

namespace mbf {
namespace {

GdsLibrary sampleLib() {
  GdsLibrary lib;
  lib.libName = "TESTLIB";
  GdsStructure top;
  top.name = "CLIP0";
  GdsPolygon a;
  a.polygon = Polygon({{0, 0}, {100, 0}, {100, 50}, {0, 50}});
  a.layer = 7;
  a.datatype = 1;
  GdsPolygon b;
  b.polygon = Polygon({{-20, -30}, {40, -30}, {40, 10}, {10, 10}, {10, 40},
                       {-20, 40}});
  b.layer = 7;
  top.polygons = {a, b};
  lib.structures = {top};
  return lib;
}

TEST(GdsiiTest, RoundTripPolygons) {
  const GdsLibrary lib = sampleLib();
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  writeGds(ss, lib);
  GdsLibrary back;
  ASSERT_TRUE(parseGds(ss, back).ok());
  ASSERT_EQ(back.structures.size(), 1u);
  const GdsStructure& s0 = back.structures[0];
  ASSERT_EQ(s0.polygons.size(), 2u);
  EXPECT_EQ(s0.polygons[0].polygon.vertices(),
            lib.structures[0].polygons[0].polygon.vertices());
  EXPECT_EQ(s0.polygons[1].polygon.vertices(),
            lib.structures[0].polygons[1].polygon.vertices());
  EXPECT_EQ(s0.polygons[0].layer, 7);
  EXPECT_EQ(s0.polygons[0].datatype, 1);
  EXPECT_EQ(back.libName, "TESTLIB");
  EXPECT_EQ(s0.name, "CLIP0");
}

TEST(GdsiiTest, UnitsRoundTrip) {
  GdsLibrary lib = sampleLib();
  lib.userUnitsPerDbUnit = 1e-3;
  lib.metersPerDbUnit = 1e-9;
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  writeGds(ss, lib);
  GdsLibrary back;
  ASSERT_TRUE(parseGds(ss, back).ok());
  EXPECT_NEAR(back.userUnitsPerDbUnit, 1e-3, 1e-12);
  EXPECT_NEAR(back.metersPerDbUnit, 1e-9, 1e-18);
}

TEST(GdsiiTest, NegativeCoordinatesSurvive) {
  GdsLibrary lib;
  GdsPolygon p;
  p.polygon = Polygon({{-1000000, -2}, {5, -2}, {5, 3000000}});
  lib.structures = {GdsStructure{"T", {p}, {}, {}}};
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  writeGds(ss, lib);
  GdsLibrary back;
  ASSERT_TRUE(parseGds(ss, back).ok());
  ASSERT_EQ(back.structures.size(), 1u);
  const auto& polys = back.structures[0].polygons;
  ASSERT_EQ(polys.size(), 1u);
  EXPECT_EQ(polys[0].polygon[0], Point(-1000000, -2));
  EXPECT_EQ(polys[0].polygon[2], Point(5, 3000000));
}

TEST(GdsiiTest, EmptyLibrary) {
  GdsLibrary lib;
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  writeGds(ss, lib);
  GdsLibrary back;
  ASSERT_TRUE(parseGds(ss, back).ok());
  EXPECT_TRUE(back.structures.empty());
  // No structure, so no top to flatten from: a named error.
  std::vector<GdsPolygon> flat;
  EXPECT_FALSE(flattenGdsChecked(back, "", flat).ok());
  EXPECT_TRUE(flat.empty());
}

TEST(GdsiiTest, GarbageRejected) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  ss << "this is not gdsii at all, definitely";
  GdsLibrary back;
  EXPECT_FALSE(parseGds(ss, back).ok());
}

TEST(GdsiiTest, TruncatedStreamRejected) {
  const GdsLibrary lib = sampleLib();
  std::stringstream full(std::ios::in | std::ios::out | std::ios::binary);
  writeGds(full, lib);
  const std::string bytes = full.str();
  std::stringstream truncated(bytes.substr(0, bytes.size() / 2),
                              std::ios::in | std::ios::binary);
  GdsLibrary back;
  EXPECT_FALSE(parseGds(truncated, back).ok());
}

TEST(GdsiiTest, FileRoundTrip) {
  const GdsLibrary lib = sampleLib();
  const std::string path = "gdsii_test_tmp.gds";
  ASSERT_TRUE(saveGds(path, lib));
  GdsLibrary back;
  ASSERT_TRUE(parseGdsFile(path, back).ok());
  std::vector<GdsPolygon> flat;
  ASSERT_TRUE(flattenGdsChecked(back, "", flat).ok());
  EXPECT_EQ(flat.size(), 2u);
  std::remove(path.c_str());
}

// GDSII structure names are unique. A second CELL used to be parsed
// and never placed: findStructure returned the first, and the second
// one's geometry was dropped without a word.
TEST(GdsiiTest, DuplicateStructureNameIsParseError) {
  const GdsLibrary sample = sampleLib();
  const std::vector<GdsPolygon>& polys = sample.structures[0].polygons;
  GdsLibrary lib;
  lib.structures = {GdsStructure{"TOP", {}, {{"CELL", {0, 0}}}, {}},
                    GdsStructure{"CELL", {polys[0]}, {}, {}},
                    GdsStructure{"CELL", polys, {}, {}}};
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  writeGds(ss, lib);
  // The second STRNAME record naming CELL (length 8, type 0x0606).
  const std::string strname("\x00\x08\x06\x06" "CELL", 8);
  const std::size_t first = ss.str().find(strname);
  const std::size_t second = ss.str().find(strname, first + 1);
  ASSERT_NE(second, std::string::npos);
  GdsLibrary back;
  const Status st = parseGds(ss, back);
  EXPECT_EQ(st.code(), StatusCode::kParseError) << st.str();
  EXPECT_NE(st.message().find("STRNAME 'CELL'"), std::string::npos)
      << st.message();
  EXPECT_EQ(st.byteOffset(), static_cast<std::int64_t>(second));
}

TEST(GdsiiTest, OddLengthNamesPadded) {
  GdsLibrary lib = sampleLib();
  lib.libName = "ODD";  // 3 chars -> padded to 4 on disk
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  writeGds(ss, lib);
  GdsLibrary back;
  ASSERT_TRUE(parseGds(ss, back).ok());
  EXPECT_EQ(back.libName, "ODD");
}

}  // namespace
}  // namespace mbf
