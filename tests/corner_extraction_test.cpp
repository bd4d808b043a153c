// Unit tests for shot corner point extraction (paper section 3 / fig. 1)
// and the shot compatibility graph.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "fracture/corner_extraction.h"
#include "fracture/shot_graph.h"

namespace mbf {
namespace {

Polygon square(int size) {
  return Polygon({{0, 0}, {size, 0}, {size, size}, {0, size}});
}

/// Corner positions are grid-local (relative to Problem::origin()); the
/// tests state their expectations in layout coordinates.
Vec2 layoutPos(const Problem& p, const CornerPoint& c) {
  return c.pos + toVec2(p.origin());
}

int countType(const std::vector<CornerPoint>& pts, CornerType t) {
  return static_cast<int>(
      std::count_if(pts.begin(), pts.end(),
                    [t](const CornerPoint& p) { return p.type == t; }));
}

TEST(CornerExtractionTest, SquareYieldsOnePointPerCorner) {
  Problem p(square(60), FractureParams{});
  const CornerExtraction ex = extractCornerPoints(p);
  EXPECT_EQ(ex.simplifiedRing().size(), 4u);
  // Each edge contributes 2 raw points; clustering merges per corner.
  EXPECT_EQ(ex.raw.size(), 8u);
  EXPECT_EQ(ex.corners.size(), 4u);
  EXPECT_EQ(countType(ex.corners, CornerType::kBottomLeft), 1);
  EXPECT_EQ(countType(ex.corners, CornerType::kBottomRight), 1);
  EXPECT_EQ(countType(ex.corners, CornerType::kTopLeft), 1);
  EXPECT_EQ(countType(ex.corners, CornerType::kTopRight), 1);
}

TEST(CornerExtractionTest, CornerPointsOvershootTheCorner) {
  Problem p(square(60), FractureParams{});
  const CornerExtraction ex = extractCornerPoints(p);
  for (const CornerPoint& c : ex.corners) {
    // Clustered corner points sit diagonally outside their target corner
    // (rounding compensation).
    const Vec2 pos = layoutPos(p, c);
    switch (c.type) {
      case CornerType::kBottomLeft:
        EXPECT_LT(pos.x, 0.0);
        EXPECT_LT(pos.y, 0.0);
        break;
      case CornerType::kTopRight:
        EXPECT_GT(pos.x, 60.0);
        EXPECT_GT(pos.y, 60.0);
        break;
      case CornerType::kBottomRight:
        EXPECT_GT(pos.x, 60.0);
        EXPECT_LT(pos.y, 0.0);
        break;
      case CornerType::kTopLeft:
        EXPECT_LT(pos.x, 0.0);
        EXPECT_GT(pos.y, 60.0);
        break;
    }
  }
}

TEST(CornerExtractionTest, DiagonalSegmentSpawnsSpacedPoints) {
  // A wide right triangle hypotenuse produces diagonal corner points.
  Polygon tri({{0, 0}, {120, 0}, {120, 60}});
  Problem p(tri, FractureParams{});
  const CornerExtraction ex = extractCornerPoints(p);
  // The hypotenuse runs up-right with interior below-right; its points
  // are top-left type, spaced ~Lth.
  const int nTl = countType(ex.raw, CornerType::kTopLeft);
  const double hypo = std::hypot(120.0, 60.0);
  EXPECT_NEAR(nTl, std::lround(hypo / p.lth()), 1);
  // All TL points lie above-left of the hypotenuse (outside).
  for (const CornerPoint& c : ex.raw) {
    if (c.type != CornerType::kTopLeft) continue;
    const Vec2 pos = layoutPos(p, c);
    EXPECT_GT(pos.y, pos.x * 0.5 - 1e-9);
  }
}

TEST(CornerExtractionTest, ShortSegmentsSkipped) {
  // A tiny nick shorter than Lth must not spawn corner points of its own:
  // total corners equal those of the enclosing square.
  Polygon nicked({{0, 0},
                  {30, 0},
                  {30, 3},
                  {33, 3},
                  {33, 0},
                  {60, 0},
                  {60, 60},
                  {0, 60}});
  FractureParams params;
  params.gamma = 0.5;  // keep RDP from erasing the nick before traversal
  Problem p(nicked, params);
  const CornerExtraction ex = extractCornerPoints(p);
  for (const CornerPoint& c : ex.raw) {
    // No raw point may come from inside the nick (3 <= x <= 33 near y=0
    // at the *top* of the nick, y ~ 3 + shift); bottom-edge points at
    // y ~ -shift are fine.
    const Vec2 pos = layoutPos(p, c);
    EXPECT_FALSE(pos.y > 1.0 && pos.y < 8.0 && pos.x > 2.0 && pos.x < 34.0)
        << pos.x << "," << pos.y << " " << toString(c.type);
  }
}

TEST(ClusterTest, MergesOnlySameType) {
  std::vector<CornerPoint> pts{
      {{0.0, 0.0}, CornerType::kBottomLeft},
      {{1.0, 0.0}, CornerType::kBottomLeft},
      {{0.5, 0.5}, CornerType::kTopRight},
  };
  const std::vector<CornerPoint> out = clusterCornerPoints(pts, 5.0);
  EXPECT_EQ(out.size(), 2u);
}

TEST(ClusterTest, ChainsMergeTransitively) {
  std::vector<CornerPoint> pts{
      {{0.0, 0.0}, CornerType::kBottomLeft},
      {{4.0, 0.0}, CornerType::kBottomLeft},
      {{8.0, 0.0}, CornerType::kBottomLeft},
  };
  const std::vector<CornerPoint> out = clusterCornerPoints(pts, 5.0);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NEAR(out[0].pos.x, 4.0, 1e-9);
}

TEST(ClusterTest, FarPointsStaySeparate) {
  std::vector<CornerPoint> pts{
      {{0.0, 0.0}, CornerType::kBottomLeft},
      {{100.0, 0.0}, CornerType::kBottomLeft},
  };
  EXPECT_EQ(clusterCornerPoints(pts, 5.0).size(), 2u);
}

TEST(TestShotTest, DiagonalPairUnique) {
  const CornerPoint bl{{0.0, 0.0}, CornerType::kBottomLeft};
  const CornerPoint tr{{30.0, 20.0}, CornerType::kTopRight};
  const std::optional<Rect> shot = testShot(bl, tr, 12);
  ASSERT_TRUE(shot.has_value());
  EXPECT_EQ(*shot, Rect(0, 0, 30, 20));
}

TEST(TestShotTest, InvertedDiagonalRejected) {
  const CornerPoint bl{{30.0, 20.0}, CornerType::kBottomLeft};
  const CornerPoint tr{{0.0, 0.0}, CornerType::kTopRight};
  EXPECT_FALSE(testShot(bl, tr, 12).has_value());
}

TEST(TestShotTest, SameTypeRejected) {
  const CornerPoint a{{0.0, 0.0}, CornerType::kBottomLeft};
  const CornerPoint b{{30.0, 20.0}, CornerType::kBottomLeft};
  EXPECT_FALSE(testShot(a, b, 12).has_value());
}

TEST(TestShotTest, LeftEdgePairGetsMinWidth) {
  const CornerPoint bl{{0.0, 0.0}, CornerType::kBottomLeft};
  const CornerPoint tl{{0.0, 40.0}, CornerType::kTopLeft};
  const std::optional<Rect> shot = testShot(bl, tl, 12);
  ASSERT_TRUE(shot.has_value());
  EXPECT_EQ(*shot, Rect(0, 0, 12, 40));
}

TEST(TestShotTest, TopEdgePairGrowsDownward) {
  const CornerPoint tl{{0.0, 40.0}, CornerType::kTopLeft};
  const CornerPoint tr{{50.0, 40.0}, CornerType::kTopRight};
  const std::optional<Rect> shot = testShot(tl, tr, 12);
  ASSERT_TRUE(shot.has_value());
  EXPECT_EQ(*shot, Rect(0, 28, 50, 40));
}

TEST(TestShotTest, MinSizeRejected) {
  const CornerPoint bl{{0.0, 0.0}, CornerType::kBottomLeft};
  const CornerPoint tr{{8.0, 30.0}, CornerType::kTopRight};
  EXPECT_FALSE(testShot(bl, tr, 12).has_value());  // width 8 < 12
}

TEST(ShotGraphTest, SquareCornersFormClique) {
  Problem p(square(60), FractureParams{});
  const CornerExtraction ex = extractCornerPoints(p);
  ASSERT_EQ(ex.corners.size(), 4u);
  const Graph g = buildShotGraph(p, ex.corners);
  // All four corners of a square are mutually compatible.
  EXPECT_EQ(g.numEdges(), 6);
}

TEST(ShotGraphTest, OverlapTestRejectsOutsideShots) {
  // Two separate lobes connected by a thin bridge: a BL point on the left
  // lobe and a TR on the right lobe imply a huge shot mostly outside.
  Polygon dumbbell({{0, 0},    {40, 0},  {40, 18}, {80, 18}, {80, 0},
                    {120, 0},  {120, 40}, {80, 40}, {80, 22}, {40, 22},
                    {40, 40},  {0, 40}});
  Problem p(dumbbell, FractureParams{});
  const CornerExtraction ex = extractCornerPoints(p);
  const Graph g = buildShotGraph(p, ex.corners);
  // Find BL of the left lobe and TR of the right lobe.
  int bl = -1;
  int tr = -1;
  for (std::size_t i = 0; i < ex.corners.size(); ++i) {
    const CornerPoint& c = ex.corners[i];
    const Vec2 pos = layoutPos(p, c);
    if (c.type == CornerType::kBottomLeft && pos.x < 5.0 && pos.y < 5.0) {
      bl = static_cast<int>(i);
    }
    if (c.type == CornerType::kTopRight && pos.x > 115.0 && pos.y > 35.0) {
      tr = static_cast<int>(i);
    }
  }
  ASSERT_GE(bl, 0);
  ASSERT_GE(tr, 0);
  // The implied 120x40 shot covers the notch region (outside), so the
  // 80 % overlap admission must reject the edge.
  EXPECT_FALSE(g.hasEdge(bl, tr));
}

}  // namespace
}  // namespace mbf
