// Tests for the GDSII subset: record encoding, 8-byte real round trip,
// polygon round trips and robustness against unknown records.
#include <gtest/gtest.h>

#include <sstream>

#include "io/gdsii.h"

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
