// Edge-case and error-path coverage across modules: degenerate inputs,
// boundary conditions, and configuration extremes.
#include <gtest/gtest.h>

#include <sstream>

#include "baselines/candidate_gen.h"
#include "baselines/matching_pursuit.h"
#include "ebeam/intensity_map.h"
#include "fracture/model_based_fracturer.h"
#include "geometry/rdp.h"
#include "io/poly_io.h"
#include "io/svg.h"
#include "io/table.h"
#include "mdp/layout.h"

namespace mbf {
namespace {

Polygon square(int size) {
  return Polygon({{0, 0}, {size, 0}, {size, size}, {0, size}});
}

TEST(PolygonEdgeTest, NormalizeCollapsesDegenerateRing) {
  Polygon p({{0, 0}, {10, 0}, {20, 0}, {30, 0}});  // all collinear
  p.normalize();
  EXPECT_LT(p.size(), 3u);
}

TEST(PolygonEdgeTest, TinyRingSurvivesSimplifyRing) {
  const Polygon tri({{0, 0}, {10, 0}, {5, 8}});
  const std::vector<Vec2> out = simplifyRing(tri, 100.0);
  EXPECT_EQ(out.size(), 3u);  // n < 4 passes through untouched
}

TEST(PolygonEdgeTest, ContainsFarOutside) {
  const Polygon sq = square(10);
  EXPECT_FALSE(sq.contains({1e9, 1e9}));
  EXPECT_FALSE(sq.contains({-1e9, 5.0}));
}

TEST(RdpEdgeTest, TwoPointPolyline) {
  const std::vector<Vec2> two{{0, 0}, {10, 10}};
  EXPECT_EQ(simplifyPolyline(two, 1.0).size(), 2u);
}

TEST(IntensityMapEdgeTest, DoseWeightedAddRemoveIdentity) {
  const ProximityModel model;
  IntensityMap map(model, {0, 0}, 40, 40);
  map.addShot({5, 5, 25, 25}, 1.3);
  map.addShot({10, 10, 30, 30}, 0.7);
  map.removeShot({5, 5, 25, 25}, 1.3);
  map.removeShot({10, 10, 30, 30}, 0.7);
  for (const double v : map.grid().data()) {
    EXPECT_NEAR(v, 0.0, 1e-9);
  }
}

TEST(IntensityMapEdgeTest, DoseScalesLinearly) {
  const ProximityModel model;
  IntensityMap a(model, {0, 0}, 40, 40);
  IntensityMap b(model, {0, 0}, 40, 40);
  a.addShot({10, 10, 30, 30}, 2.0);
  b.addShot({10, 10, 30, 30}, 1.0);
  for (int y = 0; y < 40; y += 5) {
    for (int x = 0; x < 40; x += 5) {
      EXPECT_NEAR(a.at(x, y), 2.0 * b.at(x, y), 1e-5);
    }
  }
}

TEST(CandidateGenEdgeTest, SortedByAreaDescending) {
  Problem p(Polygon({{0, 0}, {80, 0}, {80, 30}, {30, 30}, {30, 80}, {0, 80}}),
            FractureParams{});
  const std::vector<Rect> cands = generateCandidateShots(p);
  for (std::size_t i = 1; i < cands.size(); ++i) {
    EXPECT_GE(cands[i - 1].area(), cands[i].area());
  }
}

TEST(MatchingPursuitEdgeTest, HighThresholdStopsEarly) {
  Problem p(square(40), FractureParams{});
  MatchingPursuitConfig cfg;
  cfg.minCorrelation = 1e12;  // nothing correlates this strongly
  const Solution sol = MatchingPursuit(cfg).fracture(p);
  EXPECT_EQ(sol.shotCount(), 0);
}

TEST(RefinerConfigTest, AllOpsDisabledStillTerminates) {
  FractureParams params;
  params.enableBias = false;
  params.enableAddRemove = false;
  params.enableMerge = false;
  Problem p(square(40), params);
  Refiner r(p);
  const Solution sol = r.refine({{10, 10, 30, 30}});
  // Edge moves alone: grows toward the square and stops at some local
  // optimum without looping forever.
  EXPECT_EQ(sol.shotCount(), 1);
  EXPECT_LT(r.stats().iterations, params.nmax);
}

TEST(ProblemEdgeTest, VeryTightGammaStillClassifies) {
  FractureParams params;
  params.gamma = 0.4;
  Problem p(square(30), params);
  EXPECT_GT(p.numOnPixels(), 0);
  EXPECT_GT(p.numOffPixels(), 0);
}

TEST(SvgEdgeTest, SaveToBadPathFails) {
  SvgWriter svg({0, 0, 10, 10});
  EXPECT_FALSE(svg.save("/nonexistent-dir-xyz/out.svg").ok());
}

TEST(PolyIoEdgeTest, SaveToBadPathFails) {
  const Polygon polys[] = {square(5)};
  EXPECT_FALSE(savePolygons("/nonexistent-dir-xyz/out.poly", polys));
}

TEST(TableEdgeTest, NegativeNumbersFormat) {
  EXPECT_EQ(Table::fmt(-3.5, 1), "-3.5");
  EXPECT_EQ(Table::fmt(std::int64_t{-42}), "-42");
}

TEST(LayoutEdgeTest, DeepNestingDoesNotCrash) {
  // Ring inside a hole inside an outer ring: only one nesting level is
  // supported; the grouping must not crash or lose rings silently beyond
  // assigning them to their innermost container.
  const std::vector<LayoutShape> shapes = groupRings(
      {square(100), Polygon({{20, 20}, {80, 20}, {80, 80}, {20, 80}}),
       Polygon({{40, 40}, {60, 40}, {60, 60}, {40, 60}})});
  std::size_t totalRings = 0;
  for (const LayoutShape& s : shapes) totalRings += s.rings.size();
  // The innermost ring nests inside the middle one, which nests inside
  // the outer: grouping keeps every ring somewhere.
  EXPECT_GE(totalRings, 2u);
  EXPECT_LE(totalRings, 3u);
}

TEST(SolutionEdgeTest, DefaultIsFeasibleEmpty) {
  const Solution sol;
  EXPECT_EQ(sol.shotCount(), 0);
  EXPECT_TRUE(sol.feasible());
  EXPECT_EQ(sol.failingPixels(), 0);
}

}  // namespace
}  // namespace mbf
