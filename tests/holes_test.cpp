// Tests for multi-ring targets (outer boundary + holes): classification,
// corner extraction over hole boundaries, and the full pipeline on
// frame/donut shapes.
#include <gtest/gtest.h>

#include "benchgen/ilt_synth.h"
#include "baselines/greedy_set_cover.h"
#include "fracture/model_based_fracturer.h"
#include "fracture/verifier.h"

namespace mbf {
namespace {

// A 100x100 square with a 40x40 hole in the middle.
std::vector<Polygon> squareWithHole() {
  return {Polygon({{0, 0}, {100, 0}, {100, 100}, {0, 100}}),
          Polygon({{30, 30}, {70, 30}, {70, 70}, {30, 70}})};
}

TEST(HolesTest, RingOrientationCanonicalized) {
  Problem p(squareWithHole(), FractureParams{});
  ASSERT_EQ(p.rings().size(), 2u);
  EXPECT_TRUE(p.rings()[0].isCounterClockwise());
  EXPECT_FALSE(p.rings()[1].isCounterClockwise());
  // Outer ring selected by area regardless of input order.
  EXPECT_EQ(p.rings()[0].bbox(), Rect(0, 0, 100, 100));
}

TEST(HolesTest, HoleInteriorIsOff) {
  Problem p(squareWithHole(), FractureParams{});
  const Point o = p.origin();
  auto cls = [&](int wx, int wy) { return p.pixelClass(wx - o.x, wy - o.y); };
  EXPECT_EQ(cls(50, 50), PixelClass::kOff);       // hole centre
  EXPECT_EQ(cls(15, 50), PixelClass::kOn);        // annulus
  EXPECT_EQ(cls(30, 50), PixelClass::kDontCare);  // hole boundary
  EXPECT_EQ(cls(-10, 50), PixelClass::kOff);      // outside
}

TEST(HolesTest, AreaAccountsForHole) {
  Problem p(squareWithHole(), FractureParams{});
  EXPECT_EQ(p.insideArea({0, 0, 100, 100}), 100 * 100 - 40 * 40);
  EXPECT_EQ(p.insideArea({40, 40, 60, 60}), 0);
}

TEST(HolesTest, CornerExtractionCoversHoleBoundary) {
  Problem p(squareWithHole(), FractureParams{});
  const CornerExtraction ex = extractCornerPoints(p);
  EXPECT_EQ(ex.simplifiedRings.size(), 2u);
  // 4 outer convex corners (one point each after clustering) + 4 hole
  // corners. Hole corners are reflex corners of the annulus, so each
  // contributes two points of *different* types that must not merge --
  // exactly like an L-shape's notch.
  EXPECT_EQ(ex.corners.size(), 12u);
  int nearHole = 0;
  for (const CornerPoint& c : ex.corners) {
    // Corner positions are grid-local; the hole is in layout coordinates.
    const Vec2 pos = c.pos + toVec2(p.origin());
    if (pos.x > 5 && pos.x < 95 && pos.y > 5 && pos.y < 95) {
      ++nearHole;
    }
  }
  EXPECT_EQ(nearHole, 8);  // the hole's corner points
}

TEST(HolesTest, FramePipelineIsNearFeasible) {
  const FrameShape frame = makeFrameShape(5);
  ASSERT_EQ(frame.rings.size(), 2u);
  Problem p(frame.rings, FractureParams{});
  // Generator arms are feasible by construction.
  EXPECT_EQ(evaluateShots(p, frame.generatorArms).total(), 0);

  const Solution sol = ModelBasedFracturer{}.fracture(p);
  EXPECT_GE(sol.shotCount(), 4);  // a frame needs at least four shots
  const double fraction =
      static_cast<double>(sol.failingPixels()) /
      static_cast<double>(p.numOnPixels() + p.numOffPixels());
  EXPECT_LT(fraction, 0.005);
}

TEST(HolesTest, GscHandlesHoles) {
  const FrameShape frame = makeFrameShape(7);
  Problem p(frame.rings, FractureParams{});
  const Solution sol = GreedySetCover{}.fracture(p);
  EXPECT_EQ(sol.failOn, 0);
  // No candidate may blanket the hole: shots barely cover its centre.
  const Rect holeCentre{45, 45, 55, 55};
  for (const Rect& s : sol.shots) {
    EXPECT_LT(holeCentre.intersection(s).area(), 60) << s.str();
  }
}

TEST(HolesTest, SingleRingCtorStillWorks) {
  Problem a(Polygon({{0, 0}, {40, 0}, {40, 40}, {0, 40}}), FractureParams{});
  Problem b(std::vector<Polygon>{Polygon({{0, 0}, {40, 0}, {40, 40}, {0, 40}})},
            FractureParams{});
  EXPECT_EQ(a.numOnPixels(), b.numOnPixels());
  EXPECT_EQ(a.numOffPixels(), b.numOffPixels());
}

TEST(HolesTest, FrameShapeDeterministic) {
  const FrameShape a = makeFrameShape(11);
  const FrameShape b = makeFrameShape(11);
  ASSERT_EQ(a.rings.size(), b.rings.size());
  for (std::size_t i = 0; i < a.rings.size(); ++i) {
    EXPECT_EQ(a.rings[i].vertices(), b.rings[i].vertices());
  }
}

}  // namespace
}  // namespace mbf
