// Unit tests for fracture::Problem: pixel classification into Pon / Poff /
// Px, the O(1) area queries, and the grids' covariance under integer
// translation up to the int32 limits.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>

#include "fracture/problem.h"

namespace mbf {
namespace {

Polygon square(int size, Point at = {0, 0}) {
  return Polygon({{at.x, at.y},
                  {at.x + size, at.y},
                  {at.x + size, at.y + size},
                  {at.x, at.y + size}});
}

TEST(ProblemTest, ClassCountsOfSquare) {
  const int n = 40;
  Problem p(square(n), FractureParams{});
  // Pon: pixels with centre more than gamma = 2 inside the boundary.
  // For a 40x40 square these are centres in (2, 38) on each axis: pixels
  // 3..36 inclusive per axis would have centres 3.5..36.5... centres at
  // x + 0.5 > 2 means x >= 2; distance to the far edge symmetric.
  // Centre distance > 2 from every edge: 2.5 .. 37.5 -> x in [2, 37].
  EXPECT_EQ(p.numOnPixels(), 36 * 36);
  EXPECT_GT(p.numOffPixels(), 0);
}

TEST(ProblemTest, PixelClassGeometry) {
  Problem p(square(40), FractureParams{});
  const Point o = p.origin();
  auto classAtWorld = [&](int wx, int wy) {
    return p.pixelClass(wx - o.x, wy - o.y);
  };
  EXPECT_EQ(classAtWorld(20, 20), PixelClass::kOn);       // deep inside
  EXPECT_EQ(classAtWorld(0, 20), PixelClass::kDontCare);  // on boundary
  EXPECT_EQ(classAtWorld(-10, 20), PixelClass::kOff);     // outside
  EXPECT_EQ(classAtWorld(39, 39), PixelClass::kDontCare); // near corner
}

TEST(ProblemTest, OriginPadsBeyondInfluenceRadius) {
  Problem p(square(10), FractureParams{});
  const Rect bbox = Polygon(square(10)).bbox();
  EXPECT_LE(p.origin().x, bbox.x0 - p.model().influenceRadiusPx());
  EXPECT_LE(p.origin().y, bbox.y0 - p.model().influenceRadiusPx());
}

TEST(ProblemTest, InsideAreaQueries) {
  Problem p(square(40), FractureParams{});
  EXPECT_EQ(p.insideArea({0, 0, 40, 40}), 40 * 40);
  EXPECT_EQ(p.insideArea({0, 0, 10, 10}), 100);
  EXPECT_EQ(p.insideArea({-20, -20, 0, 0}), 0);
  // Off-grid clamps, no crash.
  EXPECT_EQ(p.insideArea({-1000, -1000, 1000, 1000}), 40 * 40);
}

TEST(ProblemTest, OnAreaIsSmallerThanInsideArea) {
  Problem p(square(40), FractureParams{});
  EXPECT_EQ(p.onArea({0, 0, 40, 40}), p.numOnPixels());
  EXPECT_LT(p.onArea({0, 0, 40, 40}), p.insideArea({0, 0, 40, 40}));
}

TEST(ProblemTest, WorldGridRoundTrip) {
  Problem p(square(25), FractureParams{});
  const Rect w{3, 7, 18, 21};
  EXPECT_EQ(p.gridToWorld(p.worldToGrid(w)), w);
}

TEST(ProblemTest, GammaWidensTheDontCareBand) {
  FractureParams narrow;
  narrow.gamma = 1.0;
  FractureParams wide;
  wide.gamma = 4.0;
  Problem pNarrow(square(40), narrow);
  Problem pWide(square(40), wide);
  EXPECT_GT(pNarrow.numOnPixels(), pWide.numOnPixels());
  EXPECT_GT(pNarrow.numOffPixels(), pWide.numOffPixels());
}

TEST(ProblemTest, TargetOrientationNormalized) {
  // Clockwise input is normalized to counter-clockwise.
  Polygon cw({{0, 40}, {40, 40}, {40, 0}, {0, 0}});
  Problem p(cw, FractureParams{});
  EXPECT_TRUE(p.target().isCounterClockwise());
}

TEST(ProblemTest, LthResolvedFromModel) {
  Problem p(square(30), FractureParams{});
  EXPECT_GT(p.lth(), 0.0);
  FractureParams forced;
  forced.lth = 7.5;
  Problem p2(square(30), forced);
  EXPECT_DOUBLE_EQ(p2.lth(), 7.5);
}

TEST(ProblemTest, LShapeClassification) {
  Polygon l({{0, 0}, {60, 0}, {60, 30}, {30, 30}, {30, 60}, {0, 60}});
  Problem p(l, FractureParams{});
  const Point o = p.origin();
  auto cls = [&](int wx, int wy) { return p.pixelClass(wx - o.x, wy - o.y); };
  EXPECT_EQ(cls(15, 15), PixelClass::kOn);
  EXPECT_EQ(cls(45, 15), PixelClass::kOn);
  EXPECT_EQ(cls(15, 45), PixelClass::kOn);
  EXPECT_EQ(cls(45, 45), PixelClass::kOff);  // notch
  EXPECT_EQ(cls(30, 45), PixelClass::kDontCare);
}

TEST(ProblemTest, GridsAreCovariantUnderIntegerTranslation) {
  // A skewed quadrilateral whose edge crossings are far from integers:
  // gridded in layout coordinates in double precision, its copy moved
  // near +2^31 once got an inside mask 12 px different from the
  // original. Built from the grid-local rings, both grids are equal.
  const Polygon quad({{0, 0}, {384, 350}, {330, 369}, {-15, 24}});
  const Point delta{2147482647, 2147482647};
  Polygon moved = quad;
  moved.translate(delta);
  const Problem base(quad, FractureParams{});
  const Problem far(moved, FractureParams{});
  EXPECT_EQ(far.origin().x, base.origin().x + delta.x);
  EXPECT_EQ(far.origin().y, base.origin().y + delta.y);
  ASSERT_EQ(far.gridWidth(), base.gridWidth());
  ASSERT_EQ(far.gridHeight(), base.gridHeight());
  EXPECT_EQ(far.insideMask().data(), base.insideMask().data());
  EXPECT_EQ(far.classGrid().data(), base.classGrid().data());
  EXPECT_EQ(far.numOnPixels(), base.numOnPixels());
  EXPECT_EQ(far.numOffPixels(), base.numOffPixels());
}

TEST(ProblemTest, GridHaloOutsideInt32Throws) {
  // The grid spans the bbox plus gridPad on every side; one nm more
  // than int32 holds is refused instead of wrapping.
  const int pad = Problem::gridPad(FractureParams{});
  const int lo = std::numeric_limits<std::int32_t>::min() + pad;
  EXPECT_NO_THROW(Problem(square(60, {lo, 0}), FractureParams{}));
  EXPECT_THROW(Problem(square(60, {lo - 1, 0}), FractureParams{}),
               std::out_of_range);
  const int hi = std::numeric_limits<std::int32_t>::max() - pad - 60;
  EXPECT_NO_THROW(Problem(square(60, {0, hi}), FractureParams{}));
  EXPECT_THROW(Problem(square(60, {0, hi + 1}), FractureParams{}),
               std::out_of_range);
}

}  // namespace
}  // namespace mbf
