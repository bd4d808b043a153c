#include "fracture/corner_extraction.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

#include "geometry/rdp.h"
#include "support/telemetry.h"

namespace mbf {

const char* toString(CornerType type) {
  switch (type) {
    case CornerType::kBottomLeft:
      return "BL";
    case CornerType::kBottomRight:
      return "BR";
    case CornerType::kTopLeft:
      return "TL";
    case CornerType::kTopRight:
      return "TR";
  }
  return "?";
}

namespace {

CornerType typeFromOutwardNormal(Vec2 n) {
  if (n.x > 0.0) {
    return n.y > 0.0 ? CornerType::kTopRight : CornerType::kBottomRight;
  }
  return n.y > 0.0 ? CornerType::kTopLeft : CornerType::kBottomLeft;
}

// For an axis-parallel segment a -> b with interior on the left (ring is
// counter-clockwise), emit the two endpoint corner points shifted outward
// along the segment axis (corner-rounding pre-compensation).
void emitAxisSegment(Vec2 a, Vec2 b, double shift,
                     std::vector<CornerPoint>& out) {
  const Vec2 d = b - a;
  const double len = norm(d);
  const Vec2 dir = (1.0 / len) * d;
  const Vec2 pa = a - shift * dir;
  const Vec2 pb = b + shift * dir;

  if (std::abs(d.x) < 1e-12) {
    if (d.y > 0.0) {
      // Upward: interior left = -x side, so this is the target's right
      // boundary -> right edge of a shot.
      out.push_back({pa, CornerType::kBottomRight});
      out.push_back({pb, CornerType::kTopRight});
    } else {
      // Downward: left boundary -> left edge of a shot.
      out.push_back({pa, CornerType::kTopLeft});
      out.push_back({pb, CornerType::kBottomLeft});
    }
  } else {
    if (d.x > 0.0) {
      // Rightward: interior above -> bottom boundary -> bottom shot edge.
      out.push_back({pa, CornerType::kBottomLeft});
      out.push_back({pb, CornerType::kBottomRight});
    } else {
      // Leftward: interior below -> top boundary -> top shot edge.
      out.push_back({pa, CornerType::kTopRight});
      out.push_back({pb, CornerType::kTopLeft});
    }
  }
}

// For a diagonal segment, emit points spaced ~lth along it, shifted
// `shift` along the outward normal; the corner type is the shot corner
// whose rounding prints this 45-degree-ish edge.
void emitDiagonalSegment(Vec2 a, Vec2 b, double lth, double shift,
                         std::vector<CornerPoint>& out) {
  const Vec2 d = b - a;
  const double len = norm(d);
  const Vec2 dir = (1.0 / len) * d;
  // Ring is counter-clockwise, interior on the left; outward = right side.
  const Vec2 outward{dir.y, -dir.x};
  const CornerType type = typeFromOutwardNormal(outward);

  // floor, not round: spacing must stay >= Lth so the points survive the
  // (strictly-less-than-Lth) clustering step.
  const int k = std::max(1, static_cast<int>(len / lth));
  const double spacing = len / k;
  for (int i = 0; i < k; ++i) {
    const double t = (i + 0.5) * spacing;
    const Vec2 p = a + t * dir + shift * outward;
    out.push_back({p, type});
  }
}

struct UnionFind {
  std::vector<int> parent;
  explicit UnionFind(std::size_t n) : parent(n) {
    std::iota(parent.begin(), parent.end(), 0);
  }
  int find(int v) {
    while (parent[static_cast<std::size_t>(v)] != v) {
      parent[static_cast<std::size_t>(v)] =
          parent[static_cast<std::size_t>(
              parent[static_cast<std::size_t>(v)])];
      v = parent[static_cast<std::size_t>(v)];
    }
    return v;
  }
  void unite(int a, int b) { parent[static_cast<std::size_t>(find(a))] = find(b); }
};

}  // namespace

std::vector<CornerPoint> clusterCornerPoints(std::vector<CornerPoint> points,
                                             double radius) {
  const std::size_t n = points.size();
  UnionFind uf(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      // Strictly "< radius": diagonal-run points are spaced >= Lth apart
      // by construction and must NOT merge; the two same-type points at a
      // convex axis corner are ~cornerLineOffset * sqrt(2) << Lth apart
      // and do merge.
      if (points[i].type == points[j].type &&
          dist(points[i].pos, points[j].pos) < radius - 1e-9) {
        uf.unite(static_cast<int>(i), static_cast<int>(j));
      }
    }
  }
  // Centroid per cluster root.
  std::vector<Vec2> sum(n, Vec2{});
  std::vector<int> count(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t r = static_cast<std::size_t>(uf.find(static_cast<int>(i)));
    sum[r] = sum[r] + points[i].pos;
    ++count[r];
  }
  std::vector<CornerPoint> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (count[i] > 0) {
      out.push_back({(1.0 / count[i]) * sum[i], points[i].type});
    }
  }
  return out;
}

CornerExtraction extractCornerPoints(const Problem& problem) {
  TraceScope traceExtract("corner-extraction");
  CornerExtraction result;
  const double lth = problem.lth();
  // Outward shift of every shot corner point: the distance at which a
  // shot corner prints its best 45-degree segment (model-derived; see
  // DESIGN.md -- the paper's Lth/sqrt(2) over-compensates the ~2.4 nm
  // corner erosion threefold at the reference parameters).
  const double shift = problem.model().cornerLineOffset(problem.params().gamma);

  {
    // Stage 1 runs in the grid frame: the rings translated by -origin in
    // integer arithmetic, so every double below depends only on the
    // shape, never on where it sits in the layout (DESIGN.md section 17).
    TraceScope traceSimplify("simplify");
    const Point origin = problem.origin();
    std::vector<Vec2> local;
    for (const Polygon& ringPoly : problem.rings()) {
      local.clear();
      for (const Point& p : ringPoly.vertices()) {
        local.push_back({static_cast<double>(p.x - origin.x),
                         static_cast<double>(p.y - origin.y)});
      }
      result.simplifiedRings.push_back(
          simplifyRing(local, problem.params().gamma));
    }
  }

  // Problem guarantees canonical ring orientation (outer CCW, holes CW),
  // so "interior on the left" holds while walking every ring and the
  // emit helpers work unchanged for hole boundaries.
  for (const std::vector<Vec2>& ring : result.simplifiedRings) {
    const std::size_t n = ring.size();
    for (std::size_t i = 0; i < n; ++i) {
      const Vec2 a = ring[i];
      const Vec2 b = ring[(i + 1) % n];
      const Vec2 d = b - a;
      const double len = norm(d);
      if (len < lth) continue;  // covered by neighboring segments' points
      const bool axisParallel = std::abs(d.x) < 1e-9 || std::abs(d.y) < 1e-9;
      if (axisParallel) {
        emitAxisSegment(a, b, shift, result.raw);
      } else {
        emitDiagonalSegment(a, b, lth, shift, result.raw);
      }
    }
  }
  result.corners = clusterCornerPoints(result.raw, lth);
  return result;
}

}  // namespace mbf
