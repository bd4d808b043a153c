// Unit tests for the graph-coloring-based approximate fracturer
// (paper section 3, figures 3 and 4).
#include <gtest/gtest.h>

#include "fracture/coloring_fracturer.h"

namespace mbf {
namespace {

Polygon square(int size) {
  return Polygon({{0, 0}, {size, 0}, {size, size}, {0, size}});
}

/// A class point at layout position `pos`: CornerExtraction positions
/// are grid-local, relative to Problem::origin().
CornerPoint pin(const Problem& p, Vec2 pos, CornerType type) {
  return {pos - toVec2(p.origin()), type};
}

Polygon lShape(int arm, int thick) {
  return Polygon({{0, 0},
                  {arm, 0},
                  {arm, thick},
                  {thick, thick},
                  {thick, arm},
                  {0, arm}});
}

TEST(ColoringFracturerTest, SquareBecomesOneShot) {
  Problem p(square(60), FractureParams{});
  const ColoringArtifacts art =
      ColoringFracturer{}.fractureWithArtifacts(p);
  ASSERT_EQ(art.shots.size(), 1u);
  // The single shot covers the square with a small rounding overshoot.
  const Rect s = art.shots[0];
  EXPECT_LE(s.x0, 1);
  EXPECT_GE(s.x1, 59);
  EXPECT_LE(s.y0, 1);
  EXPECT_GE(s.y1, 59);
  EXPECT_LT(std::abs(s.x0 - (-4)), 8);  // overshoot is bounded (~Lth/2)
}

TEST(ColoringFracturerTest, LShapeBecomesFewShots) {
  // The minimum clique partition of an L's corner points is 2; the greedy
  // sequential coloring may spend one extra color (refinement merges it
  // away later -- see IntegrationTest.LShapeFracturesToTwoShots).
  Problem p(lShape(80, 30), FractureParams{});
  const ColoringArtifacts art =
      ColoringFracturer{}.fractureWithArtifacts(p);
  EXPECT_GE(art.shots.size(), 2u);
  EXPECT_LE(art.shots.size(), 3u);
}

TEST(ColoringFracturerTest, ColoringIsProperOnComplement) {
  Problem p(lShape(80, 30), FractureParams{});
  const ColoringArtifacts art =
      ColoringFracturer{}.fractureWithArtifacts(p);
  const Graph inv = art.compatibility.complement();
  EXPECT_TRUE(isProperColoring(inv, art.coloring));
}

TEST(ColoringFracturerTest, EveryShotMeetsMinSize) {
  for (const int size : {30, 45, 60, 90}) {
    Problem p(lShape(size, size / 2), FractureParams{});
    const Solution sol = ColoringFracturer{}.fracture(p);
    for (const Rect& s : sol.shots) {
      EXPECT_GE(s.width(), p.params().lmin);
      EXPECT_GE(s.height(), p.params().lmin);
    }
  }
}

TEST(ColoringFracturerTest, SolutionStatsFilled) {
  Problem p(square(60), FractureParams{});
  const Solution sol = ColoringFracturer{}.fracture(p);
  EXPECT_EQ(sol.method, "coloring");
  EXPECT_EQ(sol.shotCount(), 1);
  EXPECT_GE(sol.runtimeSeconds, 0.0);
  // The approximate stage deliberately overshoots corners (shot corner
  // points sit Lth/(2 sqrt 2) outside), so a thin ring of Poff pixels
  // fails before refinement; it must stay a perimeter effect (a few px
  // per boundary nm), not an area effect.
  EXPECT_LT(static_cast<double>(sol.failingPixels()),
            6.0 * p.target().perimeter());
  EXPECT_EQ(sol.failOn, 0);
}

TEST(PlaceShotTest, FullClassUsesAllPins) {
  Problem p(square(60), FractureParams{});
  const std::vector<CornerPoint> cls{
      pin(p, {-2.0, -2.0}, CornerType::kBottomLeft),
      pin(p, {62.0, 62.0}, CornerType::kTopRight),
  };
  const Rect s = placeShotForClass(p, cls);
  EXPECT_EQ(s, Rect(-2, -2, 62, 62));
}

TEST(PlaceShotTest, TopEdgeClassExtendsToBottomBoundary) {
  Problem p(square(60), FractureParams{});
  const std::vector<CornerPoint> cls{
      pin(p, {-2.0, 62.0}, CornerType::kTopLeft),
      pin(p, {62.0, 62.0}, CornerType::kTopRight),
  };
  const Rect s = placeShotForClass(p, cls);
  EXPECT_EQ(s.x0, -2);
  EXPECT_EQ(s.x1, 62);
  // Free bottom edge extended to touch the square's bottom boundary.
  EXPECT_LE(s.y0, 0);
  EXPECT_GT(s.y0, -6);
}

TEST(PlaceShotTest, SinglePointClassExtendsBothFreeEdges) {
  Problem p(square(60), FractureParams{});
  const std::vector<CornerPoint> cls{
      pin(p, {-2.0, -2.0}, CornerType::kBottomLeft),
  };
  const Rect s = placeShotForClass(p, cls);
  EXPECT_EQ(s.bl(), Point(-2, -2));
  EXPECT_GE(s.x1, 59);
  EXPECT_GE(s.y1, 59);
}

TEST(PlaceShotTest, MinSizeEnforcedOnDegeneratePins) {
  Problem p(square(60), FractureParams{});
  // Two pins closer than Lmin in y.
  const std::vector<CornerPoint> cls{
      pin(p, {-2.0, 20.0}, CornerType::kBottomLeft),
      pin(p, {-2.0, 24.0}, CornerType::kTopLeft),
  };
  const Rect s = placeShotForClass(p, cls);
  EXPECT_GE(s.width(), p.params().lmin);
  EXPECT_GE(s.height(), p.params().lmin);
}

}  // namespace
}  // namespace mbf
