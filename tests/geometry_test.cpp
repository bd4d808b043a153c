// Unit tests for the geometry substrate: rects, polygons, RDP
// simplification, rasterization, EDT and contour tracing.
#include <gtest/gtest.h>
#include <pthread.h>

#include <cmath>

#include "geometry/contour.h"
#include "geometry/edt.h"
#include "geometry/point.h"
#include "geometry/polygon.h"
#include "geometry/rasterizer.h"
#include "geometry/rdp.h"
#include "geometry/rect.h"

namespace mbf {
namespace {

Polygon unitSquare(int size = 10) {
  return Polygon({{0, 0}, {size, 0}, {size, size}, {0, size}});
}

Polygon lShape() {
  // 20x20 square with the top-right 10x10 quadrant removed.
  return Polygon({{0, 0}, {20, 0}, {20, 10}, {10, 10}, {10, 20}, {0, 20}});
}

TEST(RectTest, BasicAccessors) {
  const Rect r{1, 2, 5, 9};
  EXPECT_EQ(r.width(), 4);
  EXPECT_EQ(r.height(), 7);
  EXPECT_EQ(r.area(), 28);
  EXPECT_FALSE(r.empty());
  EXPECT_TRUE(Rect(3, 3, 3, 8).empty());
}

TEST(RectTest, FromCornersNormalizesOrder) {
  const Rect r = Rect::fromCorners({5, 9}, {1, 2});
  EXPECT_EQ(r, Rect(1, 2, 5, 9));
}

TEST(RectTest, ContainsPointAndRect) {
  const Rect r{0, 0, 10, 10};
  EXPECT_TRUE(r.contains(Point{0, 0}));
  EXPECT_TRUE(r.contains(Point{10, 10}));
  EXPECT_FALSE(r.contains(Point{11, 5}));
  EXPECT_TRUE(r.contains(Rect{2, 2, 8, 8}));
  EXPECT_FALSE(r.contains(Rect{2, 2, 12, 8}));
}

TEST(RectTest, IntersectionAndUnion) {
  const Rect a{0, 0, 10, 10};
  const Rect b{5, 5, 15, 15};
  EXPECT_EQ(a.intersection(b), Rect(5, 5, 10, 10));
  EXPECT_EQ(a.unionWith(b), Rect(0, 0, 15, 15));
  const Rect disjoint{20, 20, 30, 30};
  EXPECT_TRUE(a.intersection(disjoint).empty());
  EXPECT_FALSE(a.intersects(disjoint));
  EXPECT_TRUE(a.intersects(b));
}

TEST(RectTest, InflatedShrinksAndGrows) {
  const Rect r{0, 0, 10, 10};
  EXPECT_EQ(r.inflated(2), Rect(-2, -2, 12, 12));
  EXPECT_EQ(r.inflated(-3), Rect(3, 3, 7, 7));
}

TEST(RectTest, DistanceToPoint) {
  const Rect r{0, 0, 10, 10};
  EXPECT_DOUBLE_EQ(r.distanceTo(5, 5), 0.0);
  EXPECT_DOUBLE_EQ(r.distanceTo(13, 5), 3.0);
  EXPECT_DOUBLE_EQ(r.distanceTo(13, 14), 5.0);
}

TEST(PointTest, SegmentDistance) {
  EXPECT_DOUBLE_EQ(distPointSegment({0, 5}, {0, 0}, {10, 0}), 5.0);
  EXPECT_DOUBLE_EQ(distPointSegment({-3, 4}, {0, 0}, {10, 0}), 5.0);
  EXPECT_DOUBLE_EQ(distPointSegment({15, 0}, {0, 0}, {10, 0}), 5.0);
  // Degenerate segment behaves like a point.
  EXPECT_DOUBLE_EQ(distPointSegment({3, 4}, {0, 0}, {0, 0}), 5.0);
}

TEST(PolygonTest, SignedAreaAndOrientation) {
  Polygon sq = unitSquare();
  EXPECT_DOUBLE_EQ(sq.signedArea(), 100.0);
  EXPECT_TRUE(sq.isCounterClockwise());
  Polygon rev({{0, 10}, {10, 10}, {10, 0}, {0, 0}});
  EXPECT_DOUBLE_EQ(rev.signedArea(), -100.0);
  rev.makeCounterClockwise();
  EXPECT_TRUE(rev.isCounterClockwise());
  EXPECT_DOUBLE_EQ(rev.signedArea(), 100.0);
}

TEST(PolygonTest, AreaOfLShape) {
  EXPECT_DOUBLE_EQ(lShape().area(), 300.0);
  EXPECT_DOUBLE_EQ(lShape().perimeter(), 80.0);
}

TEST(PolygonTest, BboxAndRectilinear) {
  EXPECT_EQ(lShape().bbox(), Rect(0, 0, 20, 20));
  EXPECT_TRUE(lShape().isRectilinear());
  const Polygon tri({{0, 0}, {10, 0}, {5, 8}});
  EXPECT_FALSE(tri.isRectilinear());
}

TEST(PolygonTest, ContainsEvenOdd) {
  const Polygon l = lShape();
  EXPECT_TRUE(l.contains({5.0, 5.0}));
  EXPECT_TRUE(l.contains({5.0, 15.0}));
  EXPECT_FALSE(l.contains({15.0, 15.0}));  // removed quadrant
  EXPECT_FALSE(l.contains({-1.0, 5.0}));
}

TEST(PolygonTest, BoundaryDistance) {
  const Polygon sq = unitSquare();
  EXPECT_DOUBLE_EQ(sq.boundaryDistance({5.0, 5.0}), 5.0);
  EXPECT_DOUBLE_EQ(sq.boundaryDistance({5.0, 12.0}), 2.0);
  EXPECT_NEAR(sq.boundaryDistance({13.0, 14.0}), 5.0, 1e-12);
}

TEST(PolygonTest, NormalizeRemovesCollinearAndDuplicates) {
  Polygon p({{0, 0}, {5, 0}, {10, 0}, {10, 10}, {10, 10}, {0, 10}});
  p.normalize();
  EXPECT_EQ(p.size(), 4u);
  EXPECT_DOUBLE_EQ(p.area(), 100.0);
}

TEST(PolygonTest, TranslateShiftsEverything) {
  Polygon p = unitSquare();
  p.translate({3, -2});
  EXPECT_EQ(p.bbox(), Rect(3, -2, 13, 8));
}

TEST(RdpTest, StraightLineCollapses) {
  std::vector<Vec2> line;
  for (int i = 0; i <= 10; ++i) line.push_back({double(i), 0.0});
  const std::vector<Vec2> out = simplifyPolyline(line, 0.5);
  EXPECT_EQ(out.size(), 2u);
}

TEST(RdpTest, PreservesSignificantCorner) {
  const std::vector<Vec2> bent{{0, 0}, {5, 0}, {10, 5}};
  const std::vector<Vec2> out = simplifyPolyline(bent, 0.5);
  EXPECT_EQ(out.size(), 3u);
}

TEST(RdpTest, ToleranceGuarantee) {
  // Noisy sine curve: every dropped point must be within tolerance of the
  // simplified chain.
  std::vector<Vec2> pts;
  for (int i = 0; i <= 200; ++i) {
    pts.push_back({0.5 * i, 3.0 * std::sin(0.1 * i)});
  }
  const double tol = 1.0;
  const std::vector<Vec2> out = simplifyPolyline(pts, tol);
  ASSERT_GE(out.size(), 2u);
  for (const Vec2& p : pts) {
    double best = 1e30;
    for (std::size_t i = 0; i + 1 < out.size(); ++i) {
      best = std::min(best, distPointSegment(p, out[i], out[i + 1]));
    }
    EXPECT_LE(best, tol + 1e-9);
  }
}

TEST(RdpTest, LongDenseContourDoesNotOverflowStack) {
  // Dense zigzag (y alternating 0/1, tolerance 0.5) whose first vertex
  // sits at y = 0.1: every split point is the vertex next to the
  // interval's END, so a recursive RDP descends one frame per vertex
  // through its first call, which no tail-call optimization removes.
  // On a thread with a 256 KiB stack that depth overflows; the
  // work-stack version must simplify the contour without crashing.
  std::vector<Vec2> pts;
  const int n = 8001;  // odd: the last vertex sits at y = 0
  pts.reserve(n);
  for (int i = 0; i < n; ++i) {
    pts.push_back({double(i), double(i % 2)});
  }
  pts[0].y = 0.1;
  struct Job {
    const std::vector<Vec2>* pts;
    std::vector<Vec2> out;
  } job{&pts, {}};
  pthread_attr_t attr;
  ASSERT_EQ(pthread_attr_init(&attr), 0);
  ASSERT_EQ(pthread_attr_setstacksize(&attr, 256 * 1024), 0);
  pthread_t thread;
  const int rc = pthread_create(
      &thread, &attr,
      [](void* arg) -> void* {
        Job& j = *static_cast<Job*>(arg);
        j.out = simplifyPolyline(*j.pts, 0.5);
        return nullptr;
      },
      &job);
  pthread_attr_destroy(&attr);
  ASSERT_EQ(rc, 0);
  ASSERT_EQ(pthread_join(thread, nullptr), 0);
  // Every zigzag vertex deviates > tolerance from its local chord.
  EXPECT_EQ(job.out.size(), pts.size());
}

TEST(RdpTest, RingOfCoincidentVerticesFallsBackToSafeSplit) {
  // All-duplicate ring, large enough to take the strided farthest-pair
  // path: the sampled anchors are coincident (best distance 0), which
  // used to produce a degenerate split. The guard falls back to an index
  // split and the ring collapses cleanly.
  std::vector<Vec2> ring(5000, Vec2{3.0, 4.0});
  const std::vector<Vec2> out = simplifyRing(ring, 0.5);
  EXPECT_GE(out.size(), 2u);
  EXPECT_LE(out.size(), 4u);
  for (const Vec2& p : out) {
    EXPECT_DOUBLE_EQ(p.x, 3.0);
    EXPECT_DOUBLE_EQ(p.y, 4.0);
  }
}

TEST(RdpTest, SmallDegenerateRingSurvives) {
  const std::vector<Vec2> ring(5, Vec2{1.0, 1.0});
  const std::vector<Vec2> out = simplifyRing(ring, 0.5);
  EXPECT_GE(out.size(), 2u);
}

TEST(RdpTest, RingSimplification) {
  // Staircase approximating a square ring simplifies to few vertices.
  std::vector<Vec2> ring;
  for (int i = 0; i < 20; ++i) ring.push_back({double(i), 0.0});
  for (int i = 0; i < 20; ++i) ring.push_back({20.0, double(i)});
  for (int i = 0; i < 20; ++i) ring.push_back({20.0 - i, 20.0});
  for (int i = 0; i < 20; ++i) ring.push_back({0.0, 20.0 - i});
  const std::vector<Vec2> out = simplifyRing(ring, 0.5);
  EXPECT_LE(out.size(), 6u);
  EXPECT_GE(out.size(), 4u);
}

TEST(RasterizerTest, SquareAreaMatches) {
  MaskGrid g(20, 20, 0);
  rasterizePolygon(unitSquare(10), {0, 0}, g);
  EXPECT_EQ(g.count([](std::uint8_t v) { return v != 0; }), 100);
  EXPECT_TRUE(g.at(5, 5));
  EXPECT_FALSE(g.at(15, 15));
}

TEST(RasterizerTest, OffsetOrigin) {
  MaskGrid g(20, 20, 0);
  rasterizePolygon(unitSquare(10), {-5, -5}, g);
  // Square [0,10]^2 with origin (-5,-5): pixels 5..14 set.
  EXPECT_TRUE(g.at(5, 5));
  EXPECT_TRUE(g.at(14, 14));
  EXPECT_FALSE(g.at(4, 5));
  EXPECT_FALSE(g.at(15, 14));
  EXPECT_EQ(g.count([](std::uint8_t v) { return v != 0; }), 100);
}

TEST(RasterizerTest, LShapeArea) {
  MaskGrid g(25, 25, 0);
  rasterizePolygon(lShape(), {0, 0}, g);
  EXPECT_EQ(g.count([](std::uint8_t v) { return v != 0; }), 300);
  EXPECT_FALSE(g.at(15, 15));
  EXPECT_TRUE(g.at(15, 5));
}

TEST(RasterizerTest, UnionOfOverlappingSquares) {
  const Polygon a = unitSquare(10);
  Polygon b = unitSquare(10);
  b.translate({5, 0});
  const Polygon polys[] = {a, b};
  MaskGrid g(25, 15, 0);
  rasterizeUnion(polys, {0, 0}, g);
  EXPECT_EQ(g.count([](std::uint8_t v) { return v != 0; }), 150);
}

TEST(EdtTest, DistanceFromSinglePoint) {
  MaskGrid m(11, 11, 0);
  m.at(5, 5) = 1;
  const Grid<float> d = squaredDistanceTransform(m);
  EXPECT_FLOAT_EQ(d.at(5, 5), 0.0f);
  EXPECT_FLOAT_EQ(d.at(8, 5), 9.0f);
  EXPECT_FLOAT_EQ(d.at(8, 9), 25.0f);
}

TEST(EdtTest, MatchesBruteForce) {
  MaskGrid m(20, 15, 0);
  m.at(3, 4) = 1;
  m.at(17, 2) = 1;
  m.at(9, 12) = 1;
  const Grid<float> d = squaredDistanceTransform(m);
  for (int y = 0; y < m.height(); ++y) {
    for (int x = 0; x < m.width(); ++x) {
      float best = 1e30f;
      for (int yy = 0; yy < m.height(); ++yy) {
        for (int xx = 0; xx < m.width(); ++xx) {
          if (!m.at(xx, yy)) continue;
          const float dx = float(x - xx);
          const float dy = float(y - yy);
          best = std::min(best, dx * dx + dy * dy);
        }
      }
      EXPECT_FLOAT_EQ(d.at(x, y), best) << x << "," << y;
    }
  }
}

TEST(ContourTest, SquareRoundTrip) {
  MaskGrid m(20, 20, 0);
  for (int y = 5; y < 15; ++y) {
    for (int x = 5; x < 15; ++x) m.at(x, y) = 1;
  }
  const std::vector<Polygon> loops = traceContours(m, {0, 0});
  ASSERT_EQ(loops.size(), 1u);
  EXPECT_DOUBLE_EQ(loops[0].signedArea(), 100.0);  // CCW outer
  EXPECT_EQ(loops[0].size(), 4u);
  EXPECT_EQ(loops[0].bbox(), Rect(5, 5, 15, 15));
}

TEST(ContourTest, HoleIsClockwise) {
  MaskGrid m(20, 20, 0);
  for (int y = 2; y < 18; ++y) {
    for (int x = 2; x < 18; ++x) m.at(x, y) = 1;
  }
  for (int y = 8; y < 12; ++y) {
    for (int x = 8; x < 12; ++x) m.at(x, y) = 0;
  }
  const std::vector<Polygon> loops = traceContours(m);
  ASSERT_EQ(loops.size(), 2u);
  int ccw = 0;
  int cw = 0;
  for (const Polygon& p : loops) {
    (p.signedArea() > 0 ? ccw : cw)++;
  }
  EXPECT_EQ(ccw, 1);
  EXPECT_EQ(cw, 1);
}

TEST(ContourTest, RoundTripThroughRasterizer) {
  // contour(rasterize(P)) must enclose the same pixel set as P.
  const Polygon l = lShape();
  MaskGrid m(30, 30, 0);
  rasterizePolygon(l, {-2, -2}, m);
  const Polygon traced = largestOuterContour(m, {-2, -2});
  MaskGrid m2(30, 30, 0);
  rasterizePolygon(traced, {-2, -2}, m2);
  EXPECT_EQ(m.data(), m2.data());
}

TEST(ContourTest, LargestOuterContourOfEmptyMask) {
  MaskGrid m(10, 10, 0);
  EXPECT_TRUE(largestOuterContour(m).empty());
}

TEST(ContourTest, TwoComponents) {
  MaskGrid m(30, 10, 0);
  for (int x = 0; x < 5; ++x) m.at(x, 1) = 1;
  for (int y = 2; y < 9; ++y) {
    for (int x = 10; x < 28; ++x) m.at(x, y) = 1;
  }
  const Polygon big = largestOuterContour(m);
  EXPECT_EQ(big.bbox(), Rect(10, 2, 28, 9));
}

}  // namespace
}  // namespace mbf
